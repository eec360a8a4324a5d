"""The deep-rewrite workload: a Galen-shaped ontology over tiny tables.

Rewriting dominates here: PerfectRef expands a query on an upper
concept into thousands of raw disjuncts and prunes them to about a
hundred, Presto emits hundreds of rules, and constraint pruning really
drops disjuncts, while execution over the small direct-mapped tables is
cheap.  Every answer set is checked against membership computed
directly over the ABox with the saturation baseline's classification,
recorded once in ``deep_reference.json`` by ``record_reference.py``
(saturation is far too slow to rerun at every set-up).
"""

from __future__ import annotations

import json
import random
from functools import partial
from pathlib import Path
from typing import Dict, List, Set, Tuple

from canonical import render
from harness import PATHS, timed_query, warm_sources

PROFILE = "Galen"
#: Galen scale; the Presto cliff grows steeply with it
SCALE = 0.022
INDIVIDUALS = 150
ASSERTIONS = 900
#: 1-atom queries ask every concept with a named concept below it;
#: 2-atom queries join a role to concepts at least this far up
UPPER_MIN_SUBSUMEES = 4
REFERENCE = Path(__file__).with_name("deep_reference.json")


def saturation_record(tbox) -> dict:
    """The saturation baseline's consequences over basic concepts, as
    strings (``C``, ``∃P``, ``∃P⁻``); what ``deep_reference.json`` holds."""
    from repro.baselines.saturation import Saturation
    from repro.dllite.syntax import AtomicConcept, AtomicRole, ExistentialRole, InverseRole

    saturation = Saturation(tbox)
    basic = (AtomicConcept, ExistentialRole, AtomicRole, InverseRole)

    def pairs(relation):
        return sorted(
            [str(lhs), str(rhs)]
            for lhs, rhs in relation
            if isinstance(lhs, basic) and isinstance(rhs, basic)
        )

    return {
        "profile": PROFILE,
        "scale": SCALE,
        "axioms": len(tbox),
        "positive": pairs(saturation.positive),
        "negative": pairs(saturation.negative),
        "unsatisfiable": sorted(str(node) for node in saturation.unsat),
    }


class Membership:
    """Certain basic-concept membership of each ABox individual.

    ``up[b]`` is every basic concept subsuming basic concept ``b`` in the
    recorded saturation; an individual belongs to the union of ``up``
    over the basic concepts its assertions give it directly.
    """

    def __init__(self, record: dict):
        self.up: Dict[str, Set[str]] = {}
        for lhs, rhs in record["positive"]:
            self.up.setdefault(lhs, {lhs}).add(rhs)
        self.negative: Dict[str, Set[str]] = {}
        for lhs, rhs in record["negative"]:
            self.negative.setdefault(lhs, set()).add(rhs)
            self.negative.setdefault(rhs, set()).add(lhs)
        self.unsat = set(record["unsatisfiable"])
        self.positive = record["positive"]

    def closure(self, basics) -> Set[str]:
        result: Set[str] = set()
        for basic in basics:
            result |= self.up.get(basic, {basic})
        return result

    def consistent(self, closed: Set[str]) -> bool:
        if closed & self.unsat:
            return False
        return not any(self.negative.get(node, set()) & closed for node in closed)


def make_abox(seed: int, tbox, membership: Membership):
    """A consistent ABox: an assertion that would make an individual (or
    a pair) inconsistent is redrawn.

    The seed only decides who is who: the assertions are drawn once, from
    a fixed generator, over individuals the seed names.  Every seed thus
    gives the same tables up to renaming, so the data inclusions that
    constraint pruning uses, and the work they save, do not vary with it.
    """
    from repro.dllite.abox import ABox, ConceptAssertion, Individual, RoleAssertion
    from repro.dllite.syntax import ExistentialRole, InverseRole

    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    roles = sorted(tbox.signature.roles, key=lambda r: r.name)
    names = list(range(INDIVIDUALS))
    random.Random(seed).shuffle(names)
    people = [Individual(f"i{n}") for n in names]
    rng = random.Random(0)
    direct: Dict[str, Set[str]] = {p.name: set() for p in people}
    pair_roles: Dict[Tuple[str, str], Set[str]] = {}
    abox = ABox()
    added = 0
    while added < ASSERTIONS:
        if rng.random() < 0.6:
            concept, who = rng.choice(concepts), rng.choice(people)
            trial = direct[who.name] | {str(concept)}
            if not membership.consistent(membership.closure(trial)):
                continue
            direct[who.name] = trial
            abox.add(ConceptAssertion(concept, who))
        else:
            role, a, b = rng.choice(roles), rng.choice(people), rng.choice(people)
            if a == b:
                continue
            left = direct[a.name] | {str(ExistentialRole(role))}
            right = direct[b.name] | {str(ExistentialRole(InverseRole(role)))}
            pair = pair_roles.get((a.name, b.name), set()) | {str(role)}
            if not (
                membership.consistent(membership.closure(left))
                and membership.consistent(membership.closure(right))
                and membership.consistent(membership.closure(pair))
            ):
                continue
            direct[a.name], direct[b.name] = left, right
            pair_roles[(a.name, b.name)] = pair
            abox.add(RoleAssertion(role, a, b))
        added += 1
    return abox, direct


class DeepRewrite:
    """1- and 2-atom queries on upper concepts, each asked once per path."""

    name = "deep-rewrite"
    ROUNDS_PER_S = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        # the recorded saturation is the reference, and it also keeps the
        # generated ABox consistent; it is no part of the program under test
        record = json.loads(REFERENCE.read_text())
        if (record["profile"], record["scale"]) != (PROFILE, SCALE):
            raise RuntimeError(f"{REFERENCE.name} was recorded for another ontology")
        self.axioms = record["axioms"]
        self.membership = Membership(record)

    def setup(self) -> None:
        from repro.corpus.profiles import load_profile
        from repro.obda import OBDASystem
        from repro.perf import ClassificationCache
        from repro.testkit.generators import direct_mapping_system

        self.tbox = load_profile(PROFILE, scale=SCALE)
        if len(self.tbox) != self.axioms:
            raise RuntimeError(f"{PROFILE} no longer matches {REFERENCE.name}")
        abox, self.direct = make_abox(self.seed, self.tbox, self.membership)
        lowered = direct_mapping_system(self.tbox, abox)
        cache = ClassificationCache()
        self.database = lowered.database
        self.systems = {
            path: OBDASystem(
                self.tbox,
                mappings=lowered.mappings,
                database=lowered.database,
                classification_cache=cache,
            )
            for path in PATHS
        }
        role = min(self.tbox.signature.roles, key=lambda r: r.name)
        for path, system in self.systems.items():
            system.is_consistent()
            warm_sources(system, path)
            # a role query outside the measured pools runs each path once
            system.certain_answers(f"q(x, y) :- {role.name}(x, y)", method=path)

    def prepare(self) -> None:
        """Pools of non-empty queries and their reference answers (untimed)."""
        from repro.dllite.syntax import ExistentialRole, InverseRole

        membership = self.membership
        closed = {who: membership.closure(b) for who, b in self.direct.items()}

        def members(basic) -> Set[Tuple[str]]:
            return {(who,) for who, nodes in closed.items() if str(basic) in nodes}

        concepts = sorted(self.tbox.signature.concepts, key=lambda c: c.name)
        below: Dict[str, int] = {c.name: 0 for c in concepts}
        for lhs, rhs in membership.positive:
            if lhs in below and rhs in below and lhs != rhs:
                below[rhs] += 1
        roles = sorted(self.tbox.signature.roles, key=lambda r: r.name)
        one: List[Tuple[str, Set]] = []
        two: List[Tuple[str, Set]] = []
        for concept in concepts:
            base = members(concept)
            if base and below[concept.name]:
                one.append((render("q", ("?x",), [(concept.name, ("?x",))]), base))
            if below[concept.name] < UPPER_MIN_SUBSUMEES:
                continue
            for role in roles:
                for inverse, args in ((False, ("?x", "?y")), (True, ("?y", "?x"))):
                    basic = ExistentialRole(InverseRole(role) if inverse else role)
                    expected = base & members(basic)
                    if expected:
                        atoms = [(concept.name, ("?x",)), (role.name, args)]
                        two.append((render("q", ("?x",), atoms), expected))
        # the query sequence is fixed by the ontology, so every seed asks
        # the same rewriting work; the seed names the individuals (and draws path order)
        fixed = random.Random(0)
        fixed.shuffle(one)
        fixed.shuffle(two)
        self.pools = {"one-atom": one, "two-atom": two}
        self.rng = random.Random(self.seed * 7919 + 3)

    def rounds(self):
        """Each round: one 1-atom and three 2-atom queries in seeded order,
        each answered on every path in seeded order.  Every call is one
        op: a query's calls differ by up to 100x across paths, and the
        160 calls of a 20-second run spread far more evenly than its 40
        queries do, so their median and 90th percentile hold steady."""
        one, two = self.pools["one-atom"], self.pools["two-atom"]
        for index in range(min(len(one), len(two) // 3)):
            batch = [("one-atom", *one[index])] + [
                ("two-atom", *two[3 * index + k]) for k in range(3)
            ]
            self.rng.shuffle(batch)
            yield [op for query in batch for op in self._ops(*query)]

    def _ops(self, shape: str, text: str, expected):
        order = list(PATHS)
        self.rng.shuffle(order)
        return [
            partial(self._call, path, shape, text, expected) for path in order
        ]

    def _call(self, path, shape, text, expected, tally) -> float:
        return timed_query(self.systems[path], text, path, expected, tally, shape)
