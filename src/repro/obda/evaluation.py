"""Query evaluation over extents (ABox or mapped virtual ABox).

A UCQ produced by a rewriter is evaluated against *extent providers*:

* :class:`ABoxExtents` — classic knowledge-base mode;
* :class:`MappingExtents` — OBDA mode, pulling each predicate's extent
  through the mappings from the relational sources.  Extents are cached
  **across queries** and checked against the database's generation
  counter on every read.  Source tables only ever append, so when the
  generation moves an extent catches up on its next read by running just
  the appended rows of the tables it reads through its mapping
  assertions (:meth:`~repro.obda.mapping.MappingCollection.predicate_delta`)
  and growing copy-on-write.  It falls back to a full pull after a
  schema change, or when a source that joins tables (or scans one table
  twice) reads a table that moved; :meth:`ExtentProvider.invalidate`
  forces the full pull explicitly;
* :class:`HierarchyExtents` — *H-complete* extents over another
  provider: each auxiliary ``p*`` of a Presto rewriting is the union of
  the base extents of ``p``'s classified subsumees, read from the rule
  memo of :func:`~repro.obda.rewriting.presto.hierarchy_rules`.  It
  depends on the classification and the data only, not on the query, so
  one provider per classification serves every Presto query; each
  ``p*`` is built once and then grows by what its body extents gain.

Growth is reported through :meth:`ExtentProvider.extent_since`: an
extent comes with a *mark*, and a later call given that mark also
returns the tuples added since, or ``None`` when only a rebuild can
tell (a full pull in between, or a provider that does not track growth,
such as :class:`ABoxExtents` and the retry/fault wrappers).

Conjunctive queries are evaluated by a backtracking join that orders
atoms greedily by current extent size and probes each later atom through
a **per-argument-position hash index** keyed on
:func:`~repro.obda.sql.stats.cell_key` — the string form that names
individuals, so a query constant ``"person/1"`` meets the individual
``person/1`` in its one bucket.  Indexes are built lazily and
cached *on the provider* (keyed by predicate, arity and key positions), so
repeated and structurally similar queries share index-construction work
instead of re-hashing full extents per query; after a data change an
index takes in only the tuples its extent gained.  Index construction
polls the budget and installs the index only on completion, so a timeout
never leaves a partial index behind.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set, Tuple

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

#: how far a reader has seen an extent grow: the growth log of the
#: extent's lineage and the log position of the snapshot it read
Mark = Tuple[List[Tuple], int]


class _Snapshot:
    """One cached extent: a row set that is never mutated, plus its place
    in the growth log of its lineage.

    ``log`` lists, in order, the tuples the extent gained since its last
    full build.  Every later snapshot of the lineage shares it and it is
    only ever appended to, when a successor is installed under the
    provider lock; so a :data:`Mark` ``(log, size)`` names one snapshot,
    and what a later one gained since then is ``log[size:later.size]``.
    ``sources`` records where the snapshot read its inputs (watermarks or
    base marks), ``generation`` the provider generation it serves.
    """

    __slots__ = ("rows", "log", "size", "generation", "sources")

    def __init__(
        self,
        rows: Set[Tuple],
        generation: int,
        sources: object,
        log: Optional[List[Tuple]] = None,
        size: int = 0,
    ):
        self.rows = rows
        self.generation = generation
        self.sources = sources
        self.log: List[Tuple] = [] if log is None else log
        self.size = size

    def mark(self) -> Mark:
        return (self.log, self.size)

    def since(self, mark: Optional[Mark]) -> Optional[List[Tuple]]:
        """The tuples gained since *mark*, or None if it is not of this lineage."""
        if mark is None or mark[0] is not self.log or mark[1] > self.size:
            return None
        return self.log[mark[1] : self.size]

    def grow(self, fresh: Set[Tuple], generation: int, sources: object) -> "_Snapshot":
        """The successor that also holds *fresh*.

        Appends to the shared log, so call it under the provider lock on
        the installed snapshot, and install the result.
        """
        added = [row for row in fresh if row not in self.rows]
        rows = self.rows
        if added:
            rows = set(rows)
            rows.update(added)
            self.log.extend(added)
        return _Snapshot(rows, generation, sources, self.log, self.size + len(added))


def _hash_rows(
    index: Dict[Tuple, List[Tuple]],
    rows: Iterable[Tuple],
    positions: Tuple[int, ...],
    budget: Optional[Budget],
) -> Dict[Tuple, List[Tuple]]:
    """*index* (not modified) with *rows* added under their position keys."""
    added: Dict[Tuple, List[Tuple]] = {}
    for row in rows:
        if budget is not None:
            budget.tick()
        added.setdefault(join_key([row[i] for i in positions]), []).append(row)
    if not index:
        return added
    grown = dict(index)
    for key, bucket in added.items():
        grown[key] = grown.get(key, []) + bucket
    return grown


class ExtentProvider:
    """Maps predicate names to their extents (sets of 1- or 2-tuples).

    Besides raw extents, providers serve per-argument-position hash
    indexes (:meth:`index`) used by the join evaluator.  The default
    implementation caches indexes on the provider and revalidates them
    against :meth:`generation` on every access, so subclasses only need
    to report a changing generation to get correct invalidation; those
    that also report growth through :meth:`extent_since` get indexes
    that take in only the new tuples.

    Concurrency: index snapshots are **copy-on-write** — a data change
    installs a new index dict (new bucket lists where rows were added)
    instead of editing the old one, so a join that already holds an
    index keeps a consistent (if slightly stale, bracket-bounded)
    snapshot while new queries index the new data.  Bookkeeping happens
    under a small per-provider lock created on demand; index
    *construction* runs outside it, so slow builds don't serialize
    unrelated queries.
    """

    #: hash indexes built from a whole extent / grown by new tuples only
    index_builds = 0
    index_extensions = 0

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        raise NotImplementedError

    def extent_since(
        self, predicate: str, arity: int, mark: Optional[Mark] = None
    ) -> Tuple[Set[Tuple], Optional[Mark], Optional[List[Tuple]]]:
        """The extent, a mark to pass next time, and the tuples it gained
        since *mark*.

        The gain is ``None`` when it is not known: no mark, a mark from
        before a full rebuild, or a provider that does not track growth
        (this default, which ABox and wrapped providers keep).  The mark
        is ``None`` when the provider cannot report growth later.
        """
        return self.extent(predicate, arity), None, None

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
        lazily, cached across queries, and brought up to date when
        :meth:`generation` moves: with the tuples the extent gained when
        :meth:`extent_since` can tell, by a rebuild otherwise.
        Construction ticks *budget*; on exhaustion the partial index is
        discarded with the raised
        :class:`~repro.errors.TimeoutExceeded`.
        """
        lock = self._sync_lock()
        key: IndexKey = (predicate, arity, positions)
        with lock:
            generation = self.generation()
            cache: Optional[Dict[IndexKey, Tuple]] = self.__dict__.get("_index_cache")
            if cache is None:
                cache = {}
                self._index_cache = cache
            entry = cache.get(key)
            if entry is not None and entry[2] == generation:
                return entry[0]
        with current_tracer().span("index-build") as span:
            rows, mark, added = self.extent_since(
                predicate, arity, entry[1] if entry is not None else None
            )
            if added is None:
                index = _hash_rows({}, rows, positions, budget)
            elif added:
                index = _hash_rows(entry[0], added, positions, budget)
            else:  # the extent only moved generation
                index = entry[0]
            span.annotate(
                predicate=predicate,
                positions=list(positions),
                rows=len(rows if added is None else added),
                grown=added is not None,
            )
        global_metrics().counter(
            "obda.evaluation.index_builds"
            if added is None
            else "obda.evaluation.index_extensions"
        ).inc()
        with lock:
            if added is None:
                self.index_builds += 1
            else:
                self.index_extensions += 1
            # Install only over the entry we started from: a racing
            # catch-up may already have installed a newer index.
            if self.__dict__.get("_index_cache") is cache and cache.get(key) is entry:
                cache[key] = (index, mark, generation)
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
    once.  Each cached extent remembers the database generation it
    serves, the schema generation and per-table watermarks it read.
    While :attr:`Database.generation` stands still a read costs that one
    generation check.  When it moves, the next read of an extent runs
    only the rows appended since its watermarks through the mapping
    assertions and installs the grown extent copy-on-write; a schema
    change, or a join source (or self-join) reading a table that moved,
    re-pulls it in full.  :meth:`invalidate` forces full pulls.
    """

    def __init__(self, mappings: MappingCollection, database: Database):
        self.mappings = mappings
        self.database = database
        self._cache: Dict[str, _Snapshot] = {}
        #: extents unfolded in full from the sources (first reads and
        #: fallbacks); the regression tests and perf-report read this.
        self.pulls = 0
        #: extents brought up to date from the appended rows alone, and
        #: the source rows those catch-ups ran through the mappings
        self.delta_refreshes = 0
        self.delta_rows = 0

    def generation(self) -> int:
        return self.database.generation

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            super().invalidate()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        return self.extent_since(predicate, arity)[0]

    def extent_since(
        self, predicate: str, arity: int, mark: Optional[Mark] = None
    ) -> Tuple[Set[Tuple], Optional[Mark], Optional[List[Tuple]]]:
        with self._sync_lock():
            generation = self.database.generation
            cache = self._cache
            entry = cache.get(predicate)
        if entry is not None and entry.generation == generation:
            return entry.rows, entry.mark(), entry.since(mark)
        structure = self.database.structure_generation
        delta = None
        if entry is not None and entry.sources[0] == structure:
            delta = self.mappings.predicate_delta(
                self.database, predicate, entry.sources[1]
            )
        if delta is not None:
            fresh, watermarks, rows_read = delta
            global_metrics().counter("obda.extents.delta_rows").inc(rows_read)
            with self._sync_lock():
                self.delta_refreshes += 1
                self.delta_rows += rows_read
                if self._cache is cache and cache.get(predicate) is entry:
                    grown = entry.grow(fresh, generation, (structure, watermarks))
                    cache[predicate] = grown
                    return grown.rows, grown.mark(), grown.since(mark)
            # A racing catch-up installed first; this result is still exact.
            return entry.rows | fresh, None, None
        watermarks = self.mappings.watermarks(self.database, predicate)
        with current_tracer().span("extent-pull") as span:
            pulled = self.mappings.predicate_extent(self.database, predicate)
            span.annotate(predicate=predicate, rows=len(pulled))
        global_metrics().counter("obda.extents.pulls").inc()
        snapshot = _Snapshot(pulled, generation, (structure, watermarks))
        with self._sync_lock():
            self.pulls += 1
            if self._cache is cache and cache.get(predicate) is entry:
                cache[predicate] = snapshot
        return snapshot.rows, snapshot.mark(), None


class HierarchyExtents(ExtentProvider):
    """H-complete extents: the data closed under the classified hierarchy.

    An auxiliary predicate ``p*`` of a Presto rewriting is served as the
    union of the base extents of ``p``'s classified subsumees (one flat
    rule each, with optional argument swapping and projection); every
    other predicate passes through to *base*.  The extents depend on the
    classification and the data, not on the query, so one provider per
    classification is shared by every query, and the hash indexes
    :meth:`ExtentProvider.index` caches on it outlive a single query.
    Derived extents are cached copy-on-write, keyed by predicate and
    arity, and revalidated against the *base* generation.  After a data
    change a ``p*`` takes in the projected tuples its body extents
    gained (:meth:`ExtentProvider.extent_since`), and is rebuilt only
    when a body extent cannot tell what it gained.
    """

    def __init__(self, classification, base: ExtentProvider):
        self.classification = classification
        self.base = base
        self._cache: Dict[Tuple[str, int], _Snapshot] = {}
        #: (predicate, arity) → times its H-complete extent was built in
        #: full / grown by new tuples; the regression tests count them.
        self.builds: Dict[Tuple[str, int], int] = {}
        self.extensions: Dict[Tuple[str, int], int] = {}

    def generation(self) -> int:
        return self.base.generation()

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            super().invalidate()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        return self.extent_since(predicate, arity)[0]

    def extent_since(
        self, predicate: str, arity: int, mark: Optional[Mark] = None
    ) -> Tuple[Set[Tuple], Optional[Mark], Optional[List[Tuple]]]:
        rules = hierarchy_rules(self.classification, predicate, arity)
        if rules is None:
            return self.base.extent_since(predicate, arity, mark)
        key = (predicate, arity)
        with self._sync_lock():
            generation = self.base.generation()
            cache = self._cache
            entry = cache.get(key)
        if entry is not None and entry.generation == generation:
            return entry.rows, entry.mark(), entry.since(mark)
        previous = entry.sources if entry is not None else (None,) * len(rules)
        reads = []
        for rule, body_mark in zip(rules, previous):
            body_atom = rule.body[0]
            rows, body_mark, added = self.base.extent_since(
                body_atom.predicate, body_atom.arity, body_mark
            )
            indices = [body_atom.args.index(arg) for arg in rule.head.args]
            reads.append((rows, body_mark, added, indices))
        marks = tuple(body_mark for _, body_mark, _, _ in reads)
        if entry is not None and all(added is not None for _, _, added, _ in reads):
            fresh = {
                tuple(row[i] for i in indices)
                for _, _, added, indices in reads
                for row in added
            }
            with self._sync_lock():
                self.extensions[key] = self.extensions.get(key, 0) + 1
                if self._cache is cache and cache.get(key) is entry:
                    grown = entry.grow(fresh, generation, marks)
                    cache[key] = grown
                    return grown.rows, grown.mark(), grown.since(mark)
            # A racing catch-up installed first; this result is still exact.
            return entry.rows | fresh, None, None
        result: Set[Tuple] = set()
        for rows, _, _, indices in reads:
            for row in rows:
                result.add(tuple(row[i] for i in indices))
        snapshot = _Snapshot(result, generation, marks)
        with self._sync_lock():
            self.builds[key] = self.builds.get(key, 0) + 1
            if self._cache is cache and cache.get(key) is entry:
                cache[key] = snapshot
        return snapshot.rows, snapshot.mark(), None


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
