"""Query evaluation over extents (ABox or mapped virtual ABox).

A UCQ produced by a rewriter is evaluated against *extent providers*:

* :class:`ABoxExtents` — classic knowledge-base mode;
* :class:`MappingExtents` — OBDA mode, pulling each predicate's extent
  through the mappings from the relational sources.  Extents are cached
  **across queries** and invalidated by the database's generation
  counter (or explicitly via :meth:`ExtentProvider.invalidate`), so a
  workload of many queries pulls each predicate from the sources once;
* :class:`HierarchyExtents` — *H-complete* extents over another
  provider: each auxiliary ``p*`` of a Presto rewriting is the union of
  the base extents of ``p``'s classified subsumees, read from the rule
  memo of :func:`~repro.obda.rewriting.presto.hierarchy_rules`.  It
  depends on the classification and the data only, not on the query, so
  one provider per classification serves every Presto query and each
  ``p*`` (and its hash indexes) is built once per data generation.

Conjunctive queries are evaluated by a backtracking join that orders
atoms greedily by current extent size and probes each later atom through
a **per-argument-position hash index** keyed on
:func:`~repro.obda.sql.stats.cell_key` — the string form that names
individuals, so a query constant ``"person/1"`` meets the individual
``person/1`` in its one bucket.  Indexes are built lazily and
cached *on the provider* (keyed by predicate, arity and key positions), so
repeated and structurally similar queries share index-construction work
instead of re-hashing full extents per query.  Index construction polls
the budget and installs the index only on completion, so a timeout never
leaves a partial index behind.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from ..dllite.abox import ABox
from ..dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from ..obs.metrics import global_metrics
from ..obs.trace import current_tracer
from ..runtime.budget import Budget
from .mapping import MappingCollection
from .queries import Atom, Constant, ConjunctiveQuery, UnionQuery, Variable
from .rewriting.presto import hierarchy_rules
from .sql.database import Database
from .sql.stats import cell_key, join_key

__all__ = [
    "ExtentProvider",
    "ABoxExtents",
    "MappingExtents",
    "HierarchyExtents",
    "evaluate_cq",
    "evaluate_ucq",
]

#: predicate name, arity and key argument positions — one hash index
#: each (the arity, because a concept and a role may share a name)
IndexKey = Tuple[str, int, Tuple[int, ...]]


class ExtentProvider:
    """Maps predicate names to their extents (sets of 1- or 2-tuples).

    Besides raw extents, providers serve per-argument-position hash
    indexes (:meth:`index`) used by the join evaluator.  The default
    implementation caches indexes on the provider and revalidates them
    against :meth:`generation` on every access, so subclasses only need
    to report a changing generation to get correct invalidation.

    Concurrency: index snapshots are **copy-on-write** — a generation
    move swaps in a fresh cache dict instead of clearing the old one, so
    a join that already holds an index keeps a consistent (if slightly
    stale, bracket-bounded) snapshot while new queries index the new
    data.  Bookkeeping happens under a small per-provider lock created
    on demand; index *construction* runs outside it, so slow builds
    don't serialize unrelated queries.
    """

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        raise NotImplementedError

    def generation(self) -> int:
        """Monotone data-version counter; 0 for immutable providers."""
        return 0

    def _sync_lock(self) -> "threading.RLock":
        """The per-provider lock, created on demand.

        ``dict.setdefault`` is atomic under the GIL, so two racing
        first-callers agree on one lock object.
        """
        # The bootstrap cannot hold the lock it is creating; the GIL
        # atomicity above is the whole synchronization story here.
        return self.__dict__.setdefault(  # repro-lint: disable=RL001
            "_provider_lock", threading.RLock()
        )

    def invalidate(self) -> None:
        """Drop cached indexes (subclasses also drop cached extents)."""
        with self._sync_lock():
            self.__dict__.pop("_index_cache", None)
            self.__dict__.pop("_index_generation", None)

    def index(
        self,
        predicate: str,
        arity: int,
        positions: Tuple[int, ...],
        budget: Optional[Budget] = None,
    ) -> Dict[Tuple, List[Tuple]]:
        """Rows of *predicate* hashed by the :func:`join_key` of the
        values at *positions*.

        ``positions == ()`` degenerates to one bucket holding the whole
        extent (the leading atom of a join plan).  The index is built
        lazily, cached across queries, and rebuilt when
        :meth:`generation` moves.  Construction ticks *budget*; on
        exhaustion the partially built index is discarded with the
        raised :class:`~repro.errors.TimeoutExceeded`.
        """
        lock = self._sync_lock()
        key: IndexKey = (predicate, arity, positions)
        with lock:
            generation = self.generation()
            cache: Optional[Dict[IndexKey, Dict]] = self.__dict__.get("_index_cache")
            if cache is None or self.__dict__.get("_index_generation") != generation:
                # Copy-on-write swap: in-flight joins keep the old snapshot.
                cache = {}
                self._index_cache = cache
                self._index_generation = generation
            cached = cache.get(key)
            if cached is not None:
                return cached
        with current_tracer().span("index-build") as span:
            rows = self.extent(predicate, arity)
            index: Dict[Tuple, List[Tuple]] = {}
            for row in rows:
                if budget is not None:
                    budget.tick()
                index.setdefault(join_key([row[i] for i in positions]), []).append(
                    row
                )
            span.annotate(
                predicate=predicate, positions=list(positions), rows=len(rows)
            )
        global_metrics().counter("obda.evaluation.index_builds").inc()
        with lock:
            # Install only into the snapshot we keyed against; if the
            # generation moved mid-build the index may mix old and new
            # rows, and the fresh snapshot must not inherit it.
            if (
                self.__dict__.get("_index_cache") is cache
                and self.__dict__.get("_index_generation") == generation
            ):
                cache.setdefault(key, index)
                return cache[key]
        return index


class ABoxExtents(ExtentProvider):
    """Extents drawn from an explicit ABox.

    Extents are assembled once per predicate and cached until the ABox's
    generation counter moves (any successful ``add``).
    """

    def __init__(self, abox: ABox):
        self.abox = abox
        self._cache: Dict[Tuple[str, int], Set[Tuple]] = {}
        self._generation = self._abox_generation()

    def _abox_generation(self) -> int:
        return getattr(self.abox, "generation", 0)

    def generation(self) -> int:
        return self._abox_generation()

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            self._generation = self._abox_generation()
            super().invalidate()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        with self._sync_lock():
            if self._abox_generation() != self._generation:
                self.invalidate()
            cache = self._cache
            cached = cache.get((predicate, arity))
        if cached is not None:
            return cached
        if arity == 1:
            extent: Set[Tuple] = {
                (individual,)
                for individual in self.abox.concept_instances(AtomicConcept(predicate))
            }
        else:
            extent = set(self.abox.role_pairs(AtomicRole(predicate)))
            extent |= self.abox.attribute_pairs(AtomicAttribute(predicate))
        with self._sync_lock():
            if self._cache is cache:  # snapshot still current — memoize
                return cache.setdefault((predicate, arity), extent)
        return extent


class MappingExtents(ExtentProvider):
    """Extents unfolded through the mappings from the source database.

    The cache is shared **across queries**: a workload touching the same
    predicates repeatedly pulls each extent through the mappings exactly
    once.  Validity is keyed on :attr:`Database.generation`, so any
    insert or schema change transparently invalidates both the extent
    and the index caches; :meth:`invalidate` forces the same drop
    explicitly.
    """

    def __init__(self, mappings: MappingCollection, database: Database):
        self.mappings = mappings
        self.database = database
        self._cache: Dict[str, Set[Tuple]] = {}
        self._generation = database.generation
        #: extents actually unfolded from the sources (cache misses);
        #: the regression tests and perf-report read this.
        self.pulls = 0

    def generation(self) -> int:
        return self.database.generation

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            self._generation = self.database.generation
            super().invalidate()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        with self._sync_lock():
            if self.database.generation != self._generation:
                self.invalidate()
            cache = self._cache
            cached = cache.get(predicate)
        if cached is not None:
            return cached
        with current_tracer().span("extent-pull") as span:
            pulled = self.mappings.predicate_extent(self.database, predicate)
            span.annotate(predicate=predicate, rows=len(pulled))
        global_metrics().counter("obda.extents.pulls").inc()
        with self._sync_lock():
            self.pulls += 1
            if self._cache is cache:  # snapshot still current — memoize
                cache.setdefault(predicate, pulled)
                return cache[predicate]
        return pulled


class HierarchyExtents(ExtentProvider):
    """H-complete extents: the data closed under the classified hierarchy.

    An auxiliary predicate ``p*`` of a Presto rewriting is served as the
    union of the base extents of ``p``'s classified subsumees (one flat
    rule each, with optional argument swapping and projection); every
    other predicate passes through to *base*.  The extents depend on the
    classification and the data, not on the query, so one provider per
    classification is shared by every query: each ``p*`` is built once
    per base generation, and the hash indexes
    :meth:`ExtentProvider.index` caches on it outlive a single query.
    Derived extents are cached copy-on-write, keyed by predicate and
    arity, and revalidated against the *base* generation, so database
    changes propagate through the whole provider stack.
    """

    def __init__(self, classification, base: ExtentProvider):
        self.classification = classification
        self.base = base
        self._cache: Dict[Tuple[str, int], Set[Tuple]] = {}
        self._base_generation = base.generation()
        #: (predicate, arity) → times its H-complete extent was built;
        #: the regression tests count materialisations with it.
        self.builds: Dict[Tuple[str, int], int] = {}

    def generation(self) -> int:
        return self.base.generation()

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            self._base_generation = self.base.generation()
            super().invalidate()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        rules = hierarchy_rules(self.classification, predicate, arity)
        if rules is None:
            return self.base.extent(predicate, arity)
        key = (predicate, arity)
        with self._sync_lock():
            if self.base.generation() != self._base_generation:
                self.invalidate()
            cache = self._cache
            cached = cache.get(key)
        if cached is not None:
            return cached
        result: Set[Tuple] = set()
        for rule in rules:
            body_atom = rule.body[0]
            base_rows = self.base.extent(body_atom.predicate, body_atom.arity)
            indices = [body_atom.args.index(arg) for arg in rule.head.args]
            for row in base_rows:
                result.add(tuple(row[i] for i in indices))
        with self._sync_lock():
            self.builds[key] = self.builds.get(key, 0) + 1
            if self._cache is cache:  # snapshot still current — memoize
                return cache.setdefault(key, result)
        return result


def evaluate_cq(
    cq: ConjunctiveQuery,
    extents: ExtentProvider,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """All answer tuples of *cq* over *extents* (set semantics).

    Atoms are ordered greedily (smallest extent first, connected atoms
    preferred); each later atom is then probed through a hash index on
    the positions its earlier neighbours bind.  Indexes come from
    :meth:`ExtentProvider.index`, so they persist across queries with
    the same probe shape instead of being rebuilt per evaluation.

    With a *budget*, the join recursion polls it (amortized) and aborts
    with :class:`~repro.errors.TimeoutExceeded` instead of running an
    unbounded join to completion.
    """
    if budget is not None:
        budget.check()
    atom_rows = [
        (atom, extents.extent(atom.predicate, atom.arity)) for atom in cq.atoms
    ]
    ordered: List[Tuple[Atom, Set[Tuple]]] = []
    remaining = list(atom_rows)
    bound_vars: Set[Variable] = set()
    # One iteration per query atom — bounded by the (small) query size,
    # not by data; the per-row budget polls happen in the join below.
    while remaining:  # repro-lint: disable=RL003
        def rank(item):
            atom, rows = item
            connected = bool(atom.variables() & bound_vars) if bound_vars else True
            return (not connected, len(rows))

        best = min(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best)
        bound_vars |= best[0].variables()

    # Per atom, fixed by the ordering: the probe key (constants keyed
    # once here, or variables bound by an earlier atom), the positions
    # that bind fresh variables, and within-atom repeats of those.
    plans = []
    seen_vars: Set[Variable] = set()
    for atom, _rows in ordered:
        key_positions: List[int] = []
        probe: List[Tuple[bool, object]] = []
        binds: List[Tuple[int, Variable]] = []
        repeats: List[Tuple[int, int]] = []
        first: Dict[Variable, int] = {}
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                key_positions.append(position)
                probe.append((True, cell_key(term.value)))
            elif term in seen_vars:
                key_positions.append(position)
                probe.append((False, term))
            elif term in first:
                repeats.append((position, first[term]))
            else:
                first[term] = position
                binds.append((position, term))
        index = extents.index(
            atom.predicate, atom.arity, tuple(key_positions), budget=budget
        )
        plans.append((tuple(probe), tuple(binds), tuple(repeats), index))
        seen_vars |= atom.variables()

    answers: Set[Tuple] = set()

    def join(depth: int, binding: Dict[Variable, object]) -> None:
        if budget is not None:
            budget.tick()
        if depth == len(plans):
            answers.add(tuple(binding[v] for v in cq.answer_vars))
            return
        probe, binds, repeats, index = plans[depth]
        key = tuple(
            [term if constant else cell_key(binding[term]) for constant, term in probe]
        )
        for row in index.get(key, ()):
            if any(cell_key(row[i]) != cell_key(row[j]) for i, j in repeats):
                continue
            local = dict(binding)
            for position, term in binds:
                local[term] = row[position]
            join(depth + 1, local)

    join(0, {})
    return answers


def evaluate_ucq(
    ucq: UnionQuery,
    extents: ExtentProvider,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """Certain-answer union over all disjuncts (budget polled per disjunct)."""
    answers: Set[Tuple] = set()
    for disjunct in ucq:
        if budget is not None:
            budget.check()
        answers |= evaluate_cq(disjunct, extents, budget=budget)
    return answers
