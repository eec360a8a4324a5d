"""PerfectRef — the classic DL-Lite query-rewriting algorithm.

Given a UCQ ``q`` and a DL-Lite TBox ``T``, PerfectRef computes a UCQ
``q'`` such that evaluating ``q'`` over *any* ABox alone gives exactly
the certain answers of ``q`` over ``<T, ABox>``: the TBox's positive
inclusions are compiled into the query.  This is the "query rewriting"
core service the paper's OBDA workflow targets (§3, §5), and the foil
for the Presto-style rewriter which uses classification instead.

The implementation follows Calvanese et al.'s applicability / atom
rewriting / reduce loop, extended with the qualified-existential rules
needed by the paper's DL-Lite dialect:

* ``B ⊑ ∃Q.A`` applies to a role atom whose filler position is unbound
  (because ``∃Q.A ⊑ ∃Q``), and to an atom *pair* ``Q(x, y), A(y)`` whose
  join variable ``y`` is existential and occurs nowhere else.

An *unbound* argument is an existential variable with a single body
occurrence.  ``reduce`` unifies two same-predicate atoms (answer
variables and constants are rigid) so previously bound variables can
become unbound, enabling further rewritings.

The positive inclusions are indexed by right-hand-side predicate once
per TBox generation, so each derived CQ visits only the inclusions that
can rewrite one of its atoms, still in TBox order.

Fresh variables are numbered per call, from just above the highest
``_uN`` already in the input, so rewriting one query twice gives the
same result, names included.
"""

from __future__ import annotations

import itertools
import re
import threading
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ...dllite.axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    RoleInclusion,
)
from ...dllite.syntax import (
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    QualifiedExistential,
)
from ...dllite.tbox import TBox
from ...errors import ReproError
from ...runtime.budget import Budget
from ..queries import (
    Atom,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
    minimize_ucq,
)

__all__ = ["perfect_ref", "RewritingTooLarge"]


class RewritingTooLarge(ReproError):
    """The rewriting exceeded ``max_disjuncts`` (worst case is exponential)."""


_FRESH_NAME = re.compile(r"_u(\d+)")


class _FreshNames:
    """Fresh ``_uN`` variables for one rewriting, numbered above every
    ``_uN`` its input already uses."""

    def __init__(self, query: UnionQuery):
        highest = -1
        for disjunct in query:
            terms = [*disjunct.answer_vars, *(t for a in disjunct.atoms for t in a.args)]
            for term in terms:
                match = isinstance(term, Variable) and _FRESH_NAME.fullmatch(term.name)
                if match:
                    highest = max(highest, int(match.group(1)))
        self._counter = itertools.count(highest + 1)

    def __call__(self) -> Variable:
        return Variable(f"_u{next(self._counter)}")


def _occurrences(cq: ConjunctiveQuery) -> Dict[Variable, int]:
    counts: Dict[Variable, int] = {}
    for atom in cq.atoms:
        for term in atom.args:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    return counts


def _is_unbound(term, cq: ConjunctiveQuery, counts: Dict[Variable, int]) -> bool:
    return (
        isinstance(term, Variable)
        and term not in cq.answer_vars
        and counts.get(term, 0) == 1
    )


def _atom_for(basic, term, fresh: _FreshNames) -> Atom:
    """The atom asserting membership of *term* in basic concept *basic*."""
    if isinstance(basic, AtomicConcept):
        return Atom(basic.name, (term,))
    if isinstance(basic, ExistentialRole):
        role = basic.role
        if isinstance(role, AtomicRole):
            return Atom(role.name, (term, fresh()))
        return Atom(role.role.name, (fresh(), term))
    if isinstance(basic, AttributeDomain):
        return Atom(basic.attribute.name, (term, fresh()))
    raise TypeError(f"not a basic concept: {basic!r}")


def _role_atom(role, subject, object_) -> Atom:
    """``Q(subject, object)`` with inverse roles flipped to their atom form."""
    if isinstance(role, AtomicRole):
        return Atom(role.name, (subject, object_))
    return Atom(role.role.name, (object_, subject))


def _replace(cq: ConjunctiveQuery, old: Tuple[Atom, ...], new: Tuple[Atom, ...]) -> ConjunctiveQuery:
    atoms: List[Atom] = []
    removed = list(old)
    for atom in cq.atoms:
        if atom in removed:
            removed.remove(atom)
        else:
            atoms.append(atom)
    atoms.extend(new)
    # dedupe while keeping order
    seen: Set[Atom] = set()
    unique = [a for a in atoms if not (a in seen or seen.add(a))]
    return ConjunctiveQuery(cq.answer_vars, unique, cq.name)


def _rhs_predicate(axiom) -> Optional[str]:
    """The predicate an atom must have for *axiom* to rewrite it."""
    if isinstance(axiom, ConceptInclusion):
        rhs = axiom.rhs
        if isinstance(rhs, AtomicConcept):
            return rhs.name
        if isinstance(rhs, (ExistentialRole, QualifiedExistential)):
            role = rhs.role
            return role.name if isinstance(role, AtomicRole) else role.role.name
        if isinstance(rhs, AttributeDomain):
            return rhs.attribute.name
        return None
    if isinstance(axiom, RoleInclusion):
        role = axiom.rhs
        return role.name if isinstance(role, AtomicRole) else role.role.name
    if isinstance(axiom, AttributeInclusion):
        return axiom.rhs.name
    return None


def _applies_to_roles_only(axiom) -> bool:
    """Whether *axiom* rewrites binary atoms only when they are roles."""
    return isinstance(axiom, RoleInclusion) or (
        isinstance(axiom, ConceptInclusion)
        and isinstance(axiom.rhs, (ExistentialRole, QualifiedExistential))
    )


class _InclusionIndex:
    """One TBox generation's positive inclusions, keyed by the predicate
    of their right-hand side.

    Each bucket holds ``(position, predicate, axiom)`` entries,
    *position* being the axiom's place in the TBox, so the buckets a CQ
    touches merge back into TBox order.  An inclusion on a role whose
    name the signature does not type as a role can never fire and is
    left out.
    """

    __slots__ = ("generation", "by_predicate")

    def __init__(self, tbox: TBox):
        # Read before the snapshot: an axiom added in between leaves this
        # index stamped with the older generation, so it is rebuilt.
        self.generation = tbox.generation
        axioms = tbox.axioms
        # a name declared both as a role and as an attribute is an attribute
        roles = {role.name for role in tbox.signature.roles} - {
            attribute.name for attribute in tbox.signature.attributes
        }
        self.by_predicate: Dict[str, List[Tuple[int, str, Axiom]]] = {}
        for position, axiom in enumerate(axioms):
            if not axiom.is_positive:
                continue
            name = _rhs_predicate(axiom)
            if name is None:
                continue
            if _applies_to_roles_only(axiom) and name not in roles:
                continue
            self.by_predicate.setdefault(name, []).append((position, name, axiom))

    def relevant(self, predicates: Iterable[str]) -> List[Tuple[int, str, Axiom]]:
        """The inclusions that may rewrite an atom over *predicates*, in
        TBox order."""
        buckets = [
            self.by_predicate[name] for name in predicates if name in self.by_predicate
        ]
        if len(buckets) == 1:
            return buckets[0]
        # positions are unique, so the sort never compares past them
        return sorted(itertools.chain.from_iterable(buckets))


_INDEX_LOCK = threading.Lock()
#: TBox → its inclusion index; weak keys, so a dropped TBox frees its index
_INDEX_CACHE: "weakref.WeakKeyDictionary[TBox, _InclusionIndex]" = (
    weakref.WeakKeyDictionary()
)


def _inclusion_index(tbox: TBox) -> _InclusionIndex:
    """The inclusion index of *tbox*'s current generation, built on first
    use and rebuilt after any ``add``/``discard``/``declare``."""
    generation = tbox.generation
    with _INDEX_LOCK:
        index = _INDEX_CACHE.get(tbox)
    if index is not None and index.generation == generation:
        return index
    index = _InclusionIndex(tbox)
    with _INDEX_LOCK:
        current = _INDEX_CACHE.get(tbox)
        if current is None or current.generation < index.generation:
            _INDEX_CACHE[tbox] = index
    return index


def _atom_rewritings(
    cq: ConjunctiveQuery, index: _InclusionIndex, fresh: _FreshNames
) -> Iterator[ConjunctiveQuery]:
    counts = _occurrences(cq)
    atoms_by_pred: Dict[str, List[Atom]] = {}
    for atom in cq.atoms:
        atoms_by_pred.setdefault(atom.predicate, []).append(atom)

    for _, name, axiom in index.relevant(atoms_by_pred):
        if isinstance(axiom, ConceptInclusion):
            rhs = axiom.rhs
            if isinstance(rhs, AtomicConcept):
                for atom in atoms_by_pred[name]:
                    if atom.arity == 1:
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, atom.args[0], fresh),))
            elif isinstance(rhs, (ExistentialRole, QualifiedExistential)):
                inverted = isinstance(rhs.role, InverseRole)
                for atom in atoms_by_pred[name]:
                    if atom.arity != 2:
                        continue
                    subject, object_ = atom.args
                    if inverted:
                        subject, object_ = object_, subject
                    # single-atom rule: filler side unbound
                    if _is_unbound(object_, cq, counts):
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, subject, fresh),))
                    # two-atom rule for qualified existentials
                    if isinstance(rhs, QualifiedExistential) and isinstance(
                        object_, Variable
                    ):
                        if object_ in cq.answer_vars:
                            continue
                        if counts.get(object_, 0) != 2:
                            continue
                        for filler_atom in atoms_by_pred.get(rhs.filler.name, ()):
                            if filler_atom.arity == 1 and filler_atom.args[0] == object_:
                                yield _replace(
                                    cq,
                                    (atom, filler_atom),
                                    (_atom_for(axiom.lhs, subject, fresh),),
                                )
            else:  # AttributeDomain
                for atom in atoms_by_pred[name]:
                    if atom.arity == 2 and _is_unbound(atom.args[1], cq, counts):
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, atom.args[0], fresh),))
        elif isinstance(axiom, RoleInclusion):
            rhs_inverted = isinstance(axiom.rhs, InverseRole)
            for atom in atoms_by_pred[name]:
                if atom.arity != 2:
                    continue
                subject, object_ = atom.args
                if rhs_inverted:
                    subject, object_ = object_, subject
                yield _replace(cq, (atom,), (_role_atom(axiom.lhs, subject, object_),))
        else:  # AttributeInclusion
            for atom in atoms_by_pred[name]:
                if atom.arity == 2:
                    yield _replace(cq, (atom,), (Atom(axiom.lhs.name, atom.args),))


def _unify_atoms(
    first: Atom, second: Atom, rigid: Set[Variable]
) -> Optional[Dict[Variable, object]]:
    """MGU of two same-predicate atoms; answer vars/constants are rigid."""
    if first.predicate != second.predicate or first.arity != second.arity:
        return None
    substitution: Dict[Variable, object] = {}

    def walk(term):
        while isinstance(term, Variable) and term in substitution:
            term = substitution[term]
        return term

    for left, right in zip(first.args, second.args):
        left, right = walk(left), walk(right)
        if left == right:
            continue
        if isinstance(left, Variable) and left not in rigid:
            substitution[left] = right
        elif isinstance(right, Variable) and right not in rigid:
            substitution[right] = left
        else:
            return None
    # Flatten chains so substitute() can be applied in one pass.
    return {var: walk(var) for var in substitution}


def _merge_duplicates(cq: ConjunctiveQuery) -> ConjunctiveQuery:
    """*cq* with repeated atoms merged (a CQ body is a set).

    A leftover copy is not harmless here: it counts as a second
    occurrence of its variables, which blocks the existential steps,
    and it survives a rewriting of the other copy, which then looks
    like an already-seen disjunct.
    """
    atoms = tuple(dict.fromkeys(cq.atoms))
    if len(atoms) == len(cq.atoms):
        return cq
    return ConjunctiveQuery(cq.answer_vars, atoms, cq.name)


def _reductions(cq: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
    """``reduce``: unify two same-predicate atoms, merging the atoms the
    unifier made identical."""
    rigid = set(cq.answer_vars)
    for first, second in itertools.combinations(cq.atoms, 2):
        unifier = _unify_atoms(first, second, rigid)
        if unifier is None:
            continue
        try:
            yield _merge_duplicates(cq.substitute(unifier))
        except ReproError:
            continue


def perfect_ref(
    query: UnionQuery,
    tbox: TBox,
    max_disjuncts: int = 20000,
    minimize: bool = True,
    budget: Optional["Budget"] = None,
) -> UnionQuery:
    """Rewrite *query* w.r.t. the positive inclusions of *tbox*.

    Raises :class:`RewritingTooLarge` when the disjunct set exceeds
    *max_disjuncts* — the worst-case size is exponential in query length.
    With a *budget*, the worklist loop polls it and raises
    :class:`~repro.errors.TimeoutExceeded` instead of grinding through
    an exponential rewriting past its deadline.
    """
    index = _inclusion_index(tbox)
    fresh = _FreshNames(query)
    seen: Dict[object, ConjunctiveQuery] = {}
    worklist: List[ConjunctiveQuery] = []
    for disjunct in map(_merge_duplicates, query):
        key = disjunct.canonical()
        if key not in seen:
            seen[key] = disjunct
            worklist.append(disjunct)

    while worklist:
        if budget is not None:
            budget.check()
        current = worklist.pop()
        produced = itertools.chain(
            _atom_rewritings(current, index, fresh), _reductions(current)
        )
        for candidate in produced:
            key = candidate.canonical()
            if key in seen:
                continue
            seen[key] = candidate
            worklist.append(candidate)
            if len(seen) > max_disjuncts:
                raise RewritingTooLarge(
                    f"PerfectRef exceeded {max_disjuncts} disjuncts"
                )
    result = UnionQuery(list(seen.values()), name=query.name)
    return minimize_ucq(result) if minimize else result
