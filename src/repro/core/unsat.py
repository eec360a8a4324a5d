"""``computeUnsat`` — the unsatisfiable predicates Ω_T (paper §5).

The seed rule is the one the paper states: for each negative inclusion
``S1 ⊑ ¬S2`` in ``T``, every node lying in both ``predecessors(S1, G_T*)``
and ``predecessors(S2, G_T*)`` is unsatisfiable (it is subsumed by two
disjoint predicates).  Predecessor sets are taken reflexively, so a
self-disjointness ``B ⊑ ¬B`` directly kills ``B`` and everything below it.

The seed is then propagated with the DL-Lite-specific rules that make the
result sound *and complete*:

* a role and its inverse, domain and range stand or fall together:
  ``Q`` unsat ⇔ ``Q⁻`` unsat ⇔ ``∃Q`` unsat ⇔ ``∃Q⁻`` unsat
  (a single pair in ``Q`` would populate all four);
* an attribute and its domain likewise: ``U`` unsat ⇔ ``δ(U)`` unsat;
* every predecessor of an unsatisfiable node is unsatisfiable
  (``S' ⊑ S ⊑ ⊥``);
* for an axiom ``B ⊑ ∃Q.A``: if the filler ``A`` is unsatisfiable, so is
  ``B`` (the role case ``Q`` unsat is already covered through the
  ``(B, ∃Q)`` arc and the predecessor rule).

Both steps walk arcs of ``G_T`` rather than its closure.  Each NI
endpoint's reflexive predecessor set comes from one depth-first search
over ``graph.predecessors``, memoised per endpoint, and the propagation
is a single worklist: a node enters it once, when it is first found
unsatisfiable, and fires the three rules for that node alone.  The
result is the least set that contains the seed and is closed under the
rules, reached in time linear in the arcs and rules it touches.  A TBox
without negative inclusions has no unsatisfiable predicate, so nothing
is computed at all.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..dllite.axioms import (
    AttributeInclusion,
    ConceptInclusion,
    RoleInclusion,
)
from ..dllite.syntax import (
    AttributeDomain,
    ExistentialRole,
    InverseRole,
)
from ..util.timing import Stopwatch
from .digraph import TBoxDigraph

__all__ = ["compute_unsat"]


def compute_unsat(
    graph: TBoxDigraph,
    closure: List[int],
    watch: Optional[Stopwatch] = None,
) -> FrozenSet[int]:
    """Return the node ids of every unsatisfiable predicate of the TBox.

    *closure* is the classifier's forward closure; the predecessor sets
    needed here are walked on ``graph.predecessors`` instead, so it is
    not read.
    """
    negative_inclusions = graph.tbox.negative_inclusions
    if not negative_inclusions:
        return frozenset()
    predecessors = graph.predecessors

    # -- seed: predecessor intersections per negative inclusion ---------------
    subsumees: Dict[int, Set[int]] = {}
    unsat: Set[int] = set()
    for axiom in negative_inclusions:
        if watch is not None:
            watch.check_budget()
        if isinstance(axiom, ConceptInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.concept
        elif isinstance(axiom, RoleInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.role
        elif isinstance(axiom, AttributeInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.attribute
        else:  # pragma: no cover - defensive
            continue
        if lhs not in graph or rhs not in graph:
            continue
        endpoints = (graph.node_id(lhs), graph.node_id(rhs))
        for endpoint in endpoints:
            if endpoint in subsumees:
                continue
            reached = {endpoint}
            stack = [endpoint]
            while stack:
                for source in predecessors[stack.pop()]:
                    if source not in reached:
                        reached.add(source)
                        stack.append(source)
            subsumees[endpoint] = reached
        unsat |= subsumees[endpoints[0]] & subsumees[endpoints[1]]
    if not unsat:
        return frozenset()

    # -- propagation: one worklist over the three rules ------------------------

    # Companion groups: {Q, Q⁻, ∃Q, ∃Q⁻} per role, {U, δ(U)} per attribute.
    companions: Dict[int, Tuple[int, ...]] = {}
    groups = [
        (role, InverseRole(role), ExistentialRole(role), ExistentialRole(InverseRole(role)))
        for role in graph.tbox.signature.roles
    ] + [
        (attribute, AttributeDomain(attribute))
        for attribute in graph.tbox.signature.attributes
    ]
    for group in groups:
        group_ids = tuple(graph.node_id(member) for member in group if member in graph)
        for member_id in group_ids:
            companions[member_id] = group_ids

    # B ⊑ ∃Q.A: an unsatisfiable filler A makes B unsatisfiable.  An
    # unsatisfiable Q needs no entry: it takes ∃Q down with it, and B lies
    # below ∃Q through the digraph's (B, ∃Q) arc.
    filler_sources: Dict[int, List[int]] = {}
    for axiom, rhs in graph.tbox.qualified_existentials():
        filler_sources.setdefault(graph.node_id(rhs.filler), []).append(
            graph.node_id(axiom.lhs)
        )

    worklist = list(unsat)
    while worklist:
        if watch is not None:
            watch.check_budget()
        node_id = worklist.pop()
        for implied in (
            *predecessors[node_id],
            *companions.get(node_id, ()),
            *filler_sources.get(node_id, ()),
        ):
            if implied not in unsat:
                unsat.add(implied)
                worklist.append(implied)

    return frozenset(unsat)
