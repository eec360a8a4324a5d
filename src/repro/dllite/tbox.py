"""The TBox container: a finite set of DL-Lite axioms plus its signature.

In OBDA (paper §4) the TBox is the only intensional component of the
ontology: instance data come from the sources through mappings, so the
TBox object is the unit every reasoning service in :mod:`repro.core`
operates on.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
    RoleInclusion,
    axiom_signature,
)
from .syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    QualifiedExistential,
)

__all__ = ["Signature", "TBox"]


class Signature:
    """The alphabet Σ of an ontology: atomic concepts, roles and attributes."""

    def __init__(
        self,
        concepts: Iterable[AtomicConcept] = (),
        roles: Iterable[AtomicRole] = (),
        attributes: Iterable[AtomicAttribute] = (),
    ):
        self.concepts: Set[AtomicConcept] = set(concepts)
        self.roles: Set[AtomicRole] = set(roles)
        self.attributes: Set[AtomicAttribute] = set(attributes)

    def add(self, predicate) -> None:
        # Copy-on-write: readers (digraph build, fingerprinting) iterate
        # whichever set object they grabbed, never one mutating under them.
        # Writers are serialized by the owning TBox's lock.
        if isinstance(predicate, AtomicConcept):
            if predicate not in self.concepts:
                self.concepts = self.concepts | {predicate}
        elif isinstance(predicate, AtomicRole):
            if predicate not in self.roles:
                self.roles = self.roles | {predicate}
        elif isinstance(predicate, AtomicAttribute):
            if predicate not in self.attributes:
                self.attributes = self.attributes | {predicate}
        else:
            raise TypeError(f"not an atomic predicate: {predicate!r}")

    def __contains__(self, predicate) -> bool:
        return (
            predicate in self.concepts
            or predicate in self.roles
            or predicate in self.attributes
        )

    def __len__(self) -> int:
        return len(self.concepts) + len(self.roles) + len(self.attributes)

    def __iter__(self):
        yield from sorted(self.concepts, key=lambda c: c.name)
        yield from sorted(self.roles, key=lambda r: r.name)
        yield from sorted(self.attributes, key=lambda a: a.name)

    def copy(self) -> "Signature":
        return Signature(self.concepts, self.roles, self.attributes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.concepts == other.concepts
            and self.roles == other.roles
            and self.attributes == other.attributes
        )

    def __repr__(self) -> str:
        return (
            f"Signature({len(self.concepts)} concepts, "
            f"{len(self.roles)} roles, {len(self.attributes)} attributes)"
        )


class TBox:
    """A DL-Lite TBox: an ordered, duplicate-free collection of axioms.

    The TBox tracks its signature incrementally.  Predicates can also be
    *declared* without appearing in any axiom (``declare``), matching OWL
    declarations — classification must report those as root/leaf predicates
    too, which is why the signature is not derived purely from axioms.
    """

    def __init__(self, axioms: Iterable[Axiom] = (), name: str = "tbox"):
        self.name = name
        self._axioms: List[Axiom] = []
        self._seen: Set[Axiom] = set()
        #: serializes mutations (axiom add/discard, declarations) so the
        #: generation bump and the structural change it reports are one
        #: atomic step even under concurrent writers.
        self._lock = threading.RLock()
        #: mutation counter — bumped by every change to axioms or the
        #: declared signature, so fingerprint-keyed caches (classification
        #: memoization, rewriting caches) can detect TBox change cheaply.
        self._generation = 0
        self.signature = Signature()
        #: free-text design notes attached to axioms (workflow step (i):
        #: the graphical design "can be enriched with auxiliary
        #: documentation regarding the design choices that were made").
        self._annotations: Dict[Axiom, str] = {}
        #: (generation, PIs, NIs) — the filtered views, rebuilt on the
        #: first access after a mutation instead of on every access.
        self._inclusion_views: Optional[
            Tuple[int, Tuple[Axiom, ...], Tuple[Axiom, ...]]
        ] = None
        for axiom in axioms:
            self.add(axiom)

    # -- annotations ---------------------------------------------------------

    def annotate(self, axiom: Axiom, note: str) -> None:
        """Attach a design note to an axiom of this TBox."""
        if axiom not in self._seen:
            raise KeyError(f"axiom not in TBox: {axiom}")
        self._annotations[axiom] = note

    def annotation(self, axiom: Axiom) -> Optional[str]:
        """The design note attached to *axiom*, if any."""
        return self._annotations.get(axiom)

    @property
    def annotations(self) -> Dict[Axiom, str]:
        return dict(self._annotations)

    # -- construction -------------------------------------------------------

    def add(self, axiom: Axiom) -> bool:
        """Add *axiom*; return False when it was already present."""
        if not isinstance(axiom, Axiom):
            raise TypeError(f"not a TBox axiom: {axiom!r}")
        with self._lock:
            if axiom in self._seen:
                return False
            self._seen.add(axiom)
            self._axioms.append(axiom)
            for predicate in axiom_signature(axiom):
                self.signature.add(predicate)
            # Bumped last: a reader seeing the new generation is
            # guaranteed to also see the axiom and signature change.
            self._generation += 1
        return True

    def extend(self, axioms: Iterable[Axiom]) -> int:
        """Add many axioms; return how many were new."""
        return sum(1 for axiom in axioms if self.add(axiom))

    def declare(self, predicate) -> None:
        """Declare an atomic predicate without asserting any axiom on it."""
        with self._lock:
            if predicate not in self.signature:
                self.signature.add(predicate)
                self._generation += 1

    def discard(self, axiom: Axiom) -> bool:
        """Remove *axiom* if present (the signature is left untouched)."""
        with self._lock:
            if axiom not in self._seen:
                return False
            self._seen.discard(axiom)
            # Copy-on-write removal: readers iterating the old list keep a
            # consistent snapshot; in-place .remove() would shift items
            # under a concurrent iterator.
            axioms = list(self._axioms)
            axioms.remove(axiom)
            self._axioms = axioms
            self._generation += 1
        return True

    @property
    def generation(self) -> int:
        """Monotone mutation counter (see :mod:`repro.perf.fingerprint`)."""
        return self._generation

    # -- inspection ----------------------------------------------------------

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self._axioms)

    def __len__(self) -> int:
        return len(self._axioms)

    def __contains__(self, axiom: Axiom) -> bool:
        return axiom in self._seen

    @property
    def axioms(self) -> Tuple[Axiom, ...]:
        with self._lock:
            return tuple(self._axioms)

    @property
    def concept_inclusions(self) -> List[ConceptInclusion]:
        return [a for a in self._axioms if isinstance(a, ConceptInclusion)]

    @property
    def role_inclusions(self) -> List[RoleInclusion]:
        return [a for a in self._axioms if isinstance(a, RoleInclusion)]

    @property
    def attribute_inclusions(self) -> List[AttributeInclusion]:
        return [a for a in self._axioms if isinstance(a, AttributeInclusion)]

    @property
    def functionality_assertions(self) -> List[Axiom]:
        return [
            a
            for a in self._axioms
            if isinstance(a, (FunctionalRole, FunctionalAttribute))
        ]

    def _views(self) -> Tuple[int, Tuple[Axiom, ...], Tuple[Axiom, ...]]:
        """The PI and NI views of the current generation, built on demand.

        Generation and axiom list are read under the mutation lock, so a
        view is never filed under a generation it does not match.
        """
        with self._lock:
            views = self._inclusion_views
            if views is None or views[0] != self._generation:
                axioms = self._axioms
                views = (
                    self._generation,
                    tuple(a for a in axioms if a.is_positive),
                    tuple(a for a in axioms if a.is_negative),
                )
                self._inclusion_views = views
            return views

    @property
    def positive_inclusions(self) -> Tuple[Axiom, ...]:
        """The PIs of the TBox — the paper's Φ_T is computed from these only."""
        return self._views()[1]

    @property
    def negative_inclusions(self) -> Tuple[Axiom, ...]:
        """The NIs (disjointness axioms) — input of ``computeUnsat``."""
        return self._views()[2]

    def qualified_existentials(self) -> Iterator[Tuple[ConceptInclusion, QualifiedExistential]]:
        """Yield every PI whose right-hand side is a qualified existential."""
        for axiom in self._axioms:
            if isinstance(axiom, ConceptInclusion) and isinstance(
                axiom.rhs, QualifiedExistential
            ):
                yield axiom, axiom.rhs

    def copy(self, name: Optional[str] = None) -> "TBox":
        clone = TBox(self._axioms, name=name or self.name)
        clone.signature = self.signature.copy()
        clone._annotations = dict(self._annotations)
        return clone

    def stats(self) -> Dict[str, int]:
        """Size statistics, used by the corpus profiles and the benchmarks."""
        with self._lock:
            return {
                "concepts": len(self.signature.concepts),
                "roles": len(self.signature.roles),
                "attributes": len(self.signature.attributes),
                "axioms": len(self._axioms),
                "positive_inclusions": len(self.positive_inclusions),
                "negative_inclusions": len(self.negative_inclusions),
                "concept_inclusions": len(self.concept_inclusions),
                "role_inclusions": len(self.role_inclusions),
                "attribute_inclusions": len(self.attribute_inclusions),
                "functionality": len(self.functionality_assertions),
            }

    def __repr__(self) -> str:
        return f"TBox({self.name!r}, {len(self)} axioms, {self.signature!r})"
