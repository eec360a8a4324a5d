"""A Presto-style rewriter: classification-driven non-recursive datalog.

The paper (§5) motivates efficient classification partly through query
answering: "efficient ontology classification can also be crucial for
query answering, which can exploit such classification, as for example
happens in the Presto algorithm ... currently implemented in the DL-Lite
reasoner QuOnto at the core of the Mastro system."

Where PerfectRef compiles the *whole* TBox into an exponential union of
CQs, Presto splits the work:

1. **existential elimination** — only the rewriting steps that remove
   unbound existential variables (witness axioms ``B ⊑ ∃Q[.A]``) are
   applied at the UCQ level; hierarchy axioms are *not* expanded here,
   which is what keeps the union small;
2. **hierarchy via datalog** — every remaining atom ``p(...)`` is
   replaced by an auxiliary predicate ``p*`` defined by one flat datalog
   rule per classified subsumee of ``p`` (taken from the transitive
   closure the graph classifier computed), e.g.::

       A*(x) :- A(x)      A*(x) :- A'(x)      A*(x) :- P(x, _)

The output is a :class:`DatalogRewriting`: a program whose size is
linear in the classification, against PerfectRef's potentially
exponential UCQ — benchmark E3 measures exactly this gap.

Phase 1's witness set (every entailed ``B ⊑ ∃Q[.A]`` and domain
inclusion) and phase 2's flat rules for each ``p*`` depend on the
classification alone, so both are computed once per
:class:`~repro.core.classify.Classification` object and memoised under
weak keys.  Classifications are immutable and shared through
:class:`~repro.perf.cache.ClassificationCache`, so every query after the
first reuses the witness TBox, PerfectRef's inclusion index over it and
the rules of every ``p*`` it has already needed.  The same rule memo
feeds :class:`~repro.obda.evaluation.HierarchyExtents`, which serves
each ``p*`` as one H-complete extent shared by every query.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...core.classify import Classification
from ...core.classifier import GraphClassifier
from ...core.deductive import qualified_inclusions
from ...dllite.axioms import ConceptInclusion
from ...dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
)
from ...dllite.tbox import TBox
from ...runtime.budget import Budget
from ..queries import Atom, ConjunctiveQuery, UnionQuery, Variable
from .perfectref import perfect_ref

__all__ = ["DatalogRule", "DatalogRewriting", "hierarchy_rules", "presto_rewrite"]


@dataclass(frozen=True)
class DatalogRule:
    """``head :- body_atom`` — all hierarchy rules are single-atom and flat."""

    head: Atom
    body: Tuple[Atom, ...]

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(map(str, self.body))}"


class DatalogRewriting:
    """A small non-recursive datalog program plus the rewritten UCQ.

    ``ucq`` references auxiliary predicates (``name*``); ``rules`` define
    each auxiliary predicate from base (mapped) predicates.  ``size`` is
    the program size used by the E3 benchmark comparison.
    """

    def __init__(self, ucq: UnionQuery, rules: Sequence[DatalogRule]):
        self.ucq = ucq
        self.rules = list(rules)

    @property
    def size(self) -> int:
        """Total number of atoms in the program (rules + query disjuncts)."""
        return sum(1 + len(rule.body) for rule in self.rules) + sum(
            len(cq.atoms) for cq in self.ucq
        )

    def auxiliary_predicates(self) -> Set[str]:
        return {rule.head.predicate for rule in self.rules}

    def as_program(self):
        """The rewriting as a general datalog :class:`~repro.obda.datalog.Program`.

        Presto rules are flat by construction, so the H-complete
        :class:`~repro.obda.evaluation.HierarchyExtents` provider
        evaluates them straight from the classification; this view exists
        for interoperability with the semi-naive engine (and is
        cross-checked against that provider in the test-suite).
        """
        from ..datalog import Program, Rule as DatalogRule_

        return Program(
            DatalogRule_(rule.head, tuple(rule.body)) for rule in self.rules
        )

    def __str__(self) -> str:
        lines = [str(rule) for rule in self.rules]
        lines.append(str(self.ucq))
        return "\n".join(lines)


_VAR_X = Variable("x")
_VAR_Y = Variable("y")


def _subsumee_rule(aux_name: str, arity: int, subsumee, of_role: bool) -> Optional[DatalogRule]:
    """One flat rule deriving ``aux`` from a classified subsumee node."""
    if arity == 1:
        head = Atom(aux_name, (_VAR_X,))
        if isinstance(subsumee, AtomicConcept):
            return DatalogRule(head, (Atom(subsumee.name, (_VAR_X,)),))
        if isinstance(subsumee, ExistentialRole):
            role = subsumee.role
            if isinstance(role, AtomicRole):
                return DatalogRule(head, (Atom(role.name, (_VAR_X, _VAR_Y)),))
            return DatalogRule(head, (Atom(role.role.name, (_VAR_Y, _VAR_X)),))
        if isinstance(subsumee, AttributeDomain):
            return DatalogRule(head, (Atom(subsumee.attribute.name, (_VAR_X, _VAR_Y)),))
        return None
    head = Atom(aux_name, (_VAR_X, _VAR_Y))
    if of_role:
        if isinstance(subsumee, AtomicRole):
            return DatalogRule(head, (Atom(subsumee.name, (_VAR_X, _VAR_Y)),))
        if isinstance(subsumee, InverseRole):
            return DatalogRule(head, (Atom(subsumee.role.name, (_VAR_Y, _VAR_X)),))
        return None
    if isinstance(subsumee, AtomicAttribute):
        return DatalogRule(head, (Atom(subsumee.name, (_VAR_X, _VAR_Y)),))
    return None


_WITNESS_LOCK = threading.Lock()
#: Classification → its witness TBox; weak keys, so a dropped
#: classification frees its witness set
_WITNESS_MEMO: "weakref.WeakKeyDictionary[Classification, TBox]" = (
    weakref.WeakKeyDictionary()
)


def _witness_tbox(classification: Classification) -> TBox:
    """The witness TBox of *classification*, built on first use.

    It holds every *entailed* inclusion whose right-hand side is an
    existential (``∃Q``, ``∃Q.A``) or attribute domain, taken straight
    from the classification closure: with this deductively closed
    witness set each unbound-variable elimination is a single axiom
    application, so no hierarchy expansion is ever needed at the UCQ
    level — filler and role upward-monotonicity is already folded into
    the axiom set.  A classification never changes, so neither does its
    witness TBox; PerfectRef's inclusion index over it is built once too.
    """
    with _WITNESS_LOCK:
        witness = _WITNESS_MEMO.get(classification)
        if witness is None:
            witness = _build_witness_tbox(classification)
            _WITNESS_MEMO[classification] = witness
    return witness


def _build_witness_tbox(classification: Classification) -> TBox:
    graph = classification.graph
    witness = TBox(name=f"{graph.tbox.name}-witnesses")
    for node in graph.nodes:
        if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute)):
            witness.declare(node)
    for node in graph.nodes:
        if isinstance(node, (AtomicRole, InverseRole)):
            continue
        for upper in classification.subsumers(node):
            if upper != node and isinstance(upper, (ExistentialRole, AttributeDomain)):
                witness.add(ConceptInclusion(node, upper))
    for axiom in qualified_inclusions(classification):
        witness.add(axiom)
    return witness


#: (aux name, arity) → the rules of that ``p*`` (``None``: not classified)
_RuleTable = Dict[Tuple[str, int], Optional[Tuple[DatalogRule, ...]]]

_RULES_LOCK = threading.Lock()
#: Classification → its rule table; weak keys, like the witness memo
_RULES_MEMO: "weakref.WeakKeyDictionary[Classification, _RuleTable]" = (
    weakref.WeakKeyDictionary()
)


def hierarchy_rules(
    classification: Classification, aux: str, arity: int
) -> Optional[Tuple[DatalogRule, ...]]:
    """The flat rules defining *aux* (``p*``) under *classification*.

    One rule per classified subsumee of ``p``, sorted as phase 2 of
    :func:`presto_rewrite` emits them; ``None`` when ``p`` is no
    predicate of the classified digraph (or *aux* is not starred).  The
    key carries the arity because a concept and a role may share a name.
    Computed on first use and memoised per classification, so each
    predicate's subsumees are enumerated once, not once per query.
    """
    if not aux.endswith("*"):
        return None
    key = (aux, arity)
    with _RULES_LOCK:
        memo = _RULES_MEMO.get(classification)
        if memo is None:
            memo = _RULES_MEMO[classification] = {}
        elif key in memo:
            return memo[key]
    rules = _build_hierarchy_rules(classification, aux, arity)
    with _RULES_LOCK:
        return memo.setdefault(key, rules)


def _build_hierarchy_rules(
    classification: Classification, aux: str, arity: int
) -> Optional[Tuple[DatalogRule, ...]]:
    name = aux[:-1]
    graph = classification.graph
    candidates = (
        [(AtomicConcept(name), False)]
        if arity == 1
        else [(AtomicRole(name), True), (AtomicAttribute(name), False)]
    )
    for node, of_role in candidates:
        if node in graph:
            rules = (
                _subsumee_rule(aux, arity, subsumee, of_role)
                for subsumee in sorted(classification.subsumees(node), key=str)
            )
            return tuple(rule for rule in rules if rule is not None)
    return None


def presto_rewrite(
    query: UnionQuery,
    tbox: TBox,
    classification: Optional[Classification] = None,
    budget: Optional[Budget] = None,
) -> DatalogRewriting:
    """Rewrite *query* into a datalog program using the classification.

    The existential-elimination phase reuses the PerfectRef loop but over
    a *hierarchy-free* witness TBox (only entailed axioms whose
    right-hand side is an existential/domain), so the UCQ growth stays
    limited to genuine witness reasoning.  The witness TBox and each
    ``p*``'s rules are built once per *classification* and reused by
    every later call.  A
    *budget* bounds both the classification (when computed here) and
    the rewriting phases.
    """
    if classification is None:
        classification = GraphClassifier().classify(tbox, watch=budget)

    # Phase 1 — existential elimination only, over the witness TBox.
    expanded = perfect_ref(
        query, _witness_tbox(classification), minimize=True, budget=budget
    )

    # Phase 2 — hierarchy as flat datalog rules, read from the memo.
    rules: List[DatalogRule] = []
    needed: Set[Tuple[str, int]] = set()
    rewritten_disjuncts: List[ConjunctiveQuery] = []
    for disjunct in expanded:
        atoms = []
        for atom in disjunct.atoms:
            if not _is_classified(atom, tbox, classification):
                atoms.append(atom)  # unknown predicate: keep as base atom
                continue
            aux = f"{atom.predicate}*"
            needed.add((aux, atom.arity))
            atoms.append(Atom(aux, atom.args))
        rewritten_disjuncts.append(
            ConjunctiveQuery(disjunct.answer_vars, atoms, disjunct.name)
        )

    for aux, arity in sorted(needed):
        if budget is not None:
            budget.check()
        rules.extend(hierarchy_rules(classification, aux, arity) or ())

    return DatalogRewriting(UnionQuery(rewritten_disjuncts, query.name), rules)


def _is_classified(atom: Atom, tbox: TBox, classification: Classification) -> bool:
    """Whether the atom's predicate is in *tbox*'s signature and classified."""
    if atom.arity == 1:
        candidates = [(AtomicConcept(atom.predicate), tbox.signature.concepts)]
    else:
        candidates = [
            (AtomicRole(atom.predicate), tbox.signature.roles),
            (AtomicAttribute(atom.predicate), tbox.signature.attributes),
        ]
    for node, declared in candidates:
        if node in declared:
            return node in classification.graph
    return False
