"""The linear bookkeeping of classification: counting, masks, ``computeUnsat``.

``subsumption_count`` popcounts each distinct closure bitset once, the
sort and named masks are packed in one pass, and ``compute_unsat`` is a
worklist over predecessor arcs.  These tests pin all three to plain
references: the enumeration of ``subsumptions()``, masks or-ed bit by
bit, and the reverse-closure fixpoint ``compute_unsat`` used to run,
copied here as the oracle.  The explicit ``computeUnsat`` cases of
``test_unsat`` run through :func:`check_against_references` too.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import build_digraph, classify, compute_unsat, transitive_closure
from repro.core.classify import bitset, popcount
from repro.core.closure import closure_scc_bitset
from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    AttributeInclusion,
    ConceptInclusion,
    ExistentialRole,
    InverseRole,
    RoleInclusion,
)
from repro.testkit import FuzzProfile, random_profile_tbox, random_tiny_tbox

# -- the reference: the reverse-closure fixpoint --------------------------------


def reference_unsat(graph, closure):
    """Ω_T by full predecessor bitsets and repeated whole-mask rounds."""
    preds = closure_scc_bitset(graph.predecessors)
    unsat_mask = 0
    for axiom in graph.tbox.negative_inclusions:
        if isinstance(axiom, ConceptInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.concept
        elif isinstance(axiom, RoleInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.role
        elif isinstance(axiom, AttributeInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.attribute
        else:
            continue
        if lhs not in graph or rhs not in graph:
            continue
        unsat_mask |= preds[graph.node_id(lhs)] & preds[graph.node_id(rhs)]

    groups = []
    for role in graph.tbox.signature.roles:
        group = 0
        for expression in (
            role,
            InverseRole(role),
            ExistentialRole(role),
            ExistentialRole(InverseRole(role)),
        ):
            if expression in graph:
                group |= 1 << graph.node_id(expression)
        groups.append(group)
    for attribute in graph.tbox.signature.attributes:
        group = 0
        for expression in (attribute, AttributeDomain(attribute)):
            if expression in graph:
                group |= 1 << graph.node_id(expression)
        groups.append(group)
    qualified = [
        (axiom.lhs, rhs.role, rhs.filler)
        for axiom, rhs in graph.tbox.qualified_existentials()
    ]

    while True:
        previous = unsat_mask
        for group in groups:
            if unsat_mask & group:
                unsat_mask |= group
        mask = unsat_mask
        while mask:
            low = mask & -mask
            unsat_mask |= preds[low.bit_length() - 1]
            mask ^= low
        for lhs, role, filler in qualified:
            filler_unsat = unsat_mask >> graph.node_id(filler) & 1
            role_unsat = role in graph and unsat_mask >> graph.node_id(role) & 1
            if filler_unsat or role_unsat:
                unsat_mask |= 1 << graph.node_id(lhs)
        if unsat_mask == previous:
            break
    return frozenset(i for i in range(graph.node_count) if unsat_mask >> i & 1)


def reference_masks(graph):
    """Sort masks and the named mask, or-ed in one bit at a time."""
    sort_masks = {}
    named = 0
    for node_id, sort in enumerate(graph.sorts()):
        sort_masks[sort] = sort_masks.get(sort, 0) | 1 << node_id
        node = graph.nodes[node_id]
        if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute)):
            named |= 1 << node_id
    return sort_masks, named


def check_against_references(tbox):
    """``compute_unsat``, both counts and both masks agree with the references."""
    graph = build_digraph(tbox)
    closure = transitive_closure(graph.successors)
    expected = reference_unsat(graph, closure)
    assert compute_unsat(graph, closure) == expected

    classification = classify(tbox)
    assert classification.unsat_ids == expected
    for named_only in (True, False):
        listed = list(classification.subsumptions(named_only=named_only))
        assert classification.subsumption_count(named_only=named_only) == len(listed)

    sort_masks, named = reference_masks(classification.graph)
    assert classification._named_mask == named
    for sort, mask in classification._sort_mask.items():
        assert mask == sort_masks.get(sort, 0)


# -- the property over both testkit generators ---------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_linear_bookkeeping_matches_references(seed, tiny):
    rng = random.Random(seed)
    if tiny:
        tbox = random_tiny_tbox(rng, FuzzProfile(tiny_axioms=10))
    else:
        tbox = random_profile_tbox(rng, FuzzProfile(max_concepts=30))
    check_against_references(tbox)


# -- the helpers -----------------------------------------------------------------


def test_popcount_and_bitset():
    assert popcount(0) == 0
    assert popcount((1 << 200) | 0b1011) == 4
    assert bitset([], 0) == 0
    assert bitset([0, 3, 8, 199], 200) == 1 | 1 << 3 | 1 << 8 | 1 << 199
    ids = random.Random(5).sample(range(1000), 300)
    assert bitset(ids, 1000) == sum(1 << i for i in ids)
