"""Content-addressed cache of synthesis results.

Synthesis is pure: the explicit definition depends only on the specification
``φ(ī, ā, o)`` and the declared variable roles — never on the problem *name*
or the process that ran the proof search.  Results are therefore cached under
a **content address** derived from the specification:

* the in-memory tier keys an LRU ``OrderedDict`` on a :class:`SpecKey`; its
  formula component is a canonical node (nodes are hash-consed when built,
  see ``core.node``), so key hashing and equality are identity checks;
* the optional on-disk tier addresses entries by :func:`spec_digest`, a
  SHA-256 over the *deterministic rendering* of the specification and the
  variable signature.  Renderings — unlike Python hashes — are stable across
  processes (``PYTHONHASHSEED``) and machines, so sweep workers and later
  service processes share one persistent store.  Each entry is a pickle of
  the :class:`~repro.synthesis.implicit_to_explicit.SynthesisResult` it was
  given — from the pipeline, one without its proof, which the witness tier
  keeps (AST nodes pickle as constructor calls, see ``core.node.Node``),
  stamped with :func:`~repro.nrc.simplify.simplifier_fingerprint` so entries
  simplified by another rule set read as stale misses, next to a
  human-readable JSON sidecar used by ``python -m repro cache-stats``.

Long-running services must not grow without bound; :meth:`SynthesisCache.
maintain` size-bounds the **disk tier**, with a cost-aware policy: each sidecar
records the synthesis wall-time that produced its entry, and past the bounds
the cheapest-to-recompute entries are evicted first (a microsecond union view
is disposable; a multi-second copy-chain proof is kept).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.logic.formulas import Formula
from repro.logic.terms import Var
from repro.nrc.expr import expr_size
from repro.nrc.simplify import simplifier_fingerprint
from repro.obs.trace import get_tracer
from repro.specs.problems import ImplicitDefinitionProblem
from repro.synthesis.implicit_to_explicit import SynthesisResult
from repro.witness.store import WITNESS_SUBDIR, WitnessStore, atomic_write_bytes, disk_census

#: Default bound on the in-memory tier (entries, not bytes: the pipeline
#: stores results without their proof trees, and expressions are small).
DEFAULT_CAPACITY = 128

#: Defaults for the disk tier's cost-aware eviction (entries / payload bytes).
DEFAULT_DISK_ENTRY_BOUND = 1024
DEFAULT_DISK_PAYLOAD_BOUND = 256 * 1024 * 1024


@dataclass(frozen=True)
class SpecKey:
    """The in-memory content key: canonical specification + variable roles."""

    phi: Formula
    inputs: Tuple[Var, ...]
    output: Var
    auxiliaries: Tuple[Var, ...]


def spec_key(problem: ImplicitDefinitionProblem) -> SpecKey:
    """Content key of ``problem``.

    Built once per problem object and kept on it: a registry entry's problem
    lives as long as the process, so a warm lookup hashes a ready key.
    """
    return problem.memo("_spec_key", _build_spec_key)


def _build_spec_key(problem: ImplicitDefinitionProblem) -> SpecKey:
    return SpecKey(problem.phi, problem.inputs, problem.output, problem.auxiliaries)


def spec_digest(problem: ImplicitDefinitionProblem) -> str:
    """Stable hex content address of ``problem`` (cross-process, cross-machine).

    Built from deterministic renderings: the specification's string form and
    the ``name:type`` signature of every declared variable.  Two problems
    with the same structure share an address even under different problem
    names — the cache stores *results of specifications*, not of labels.
    Computed once per problem object, like :func:`spec_key`.
    """
    return problem.memo("_spec_digest", _build_spec_digest)


def _build_spec_digest(problem: ImplicitDefinitionProblem) -> str:
    signature = "\n".join(
        [
            f"phi={problem.phi}",
            "inputs=" + ";".join(f"{v.name}:{v.typ}" for v in problem.inputs),
            f"output={problem.output.name}:{problem.output.typ}",
            "aux=" + ";".join(f"{v.name}:{v.typ}" for v in problem.auxiliaries),
        ]
    )
    return hashlib.sha256(signature.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for both tiers."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    disk_evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class DiskEntry:
    """One on-disk cache entry's metadata (from its JSON sidecar).

    ``synthesis_seconds`` is the wall-time of the cold run that produced the
    entry (proof search + extraction + simplification) — the recompute cost
    the eviction policy protects.  Sidecars written before the field existed
    read as ``0.0``: maximally cheap, first to go.
    """

    digest: str
    name: str
    expression: str
    expression_size: int
    proof_size: int
    created: float
    payload_bytes: int = 0
    synthesis_seconds: float = 0.0

    def to_api(self) -> "api_module.CacheEntryInfo":
        from repro.service import api as api_module

        return api_module.CacheEntryInfo(**self.__dict__)

    def as_dict(self) -> Dict[str, object]:
        return self.to_api().to_json_dict()


#: Per process: the ``time.monotonic()`` of the last stale-``*.tmp`` sweep
#: of each cache directory (absolute path), see ``STALE_TMP_SECONDS``.
_LAST_TMP_SWEEP: Dict[str, float] = {}


class SynthesisCache:
    """Two-tier content-addressed store of :class:`SynthesisResult` objects.

    ``capacity`` bounds the in-memory LRU tier; ``disk_dir`` (optional)
    enables the persistent tier shared across processes.  ``lookup`` promotes
    disk hits into memory; ``store`` writes through to both tiers.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        disk_dir: Optional[os.PathLike] = None,
        disk_entry_bound: Optional[int] = DEFAULT_DISK_ENTRY_BOUND,
        disk_payload_bound: Optional[int] = DEFAULT_DISK_PAYLOAD_BOUND,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.disk_entry_bound = disk_entry_bound
        self.disk_payload_bound = disk_payload_bound
        self.stats = CacheStats()
        self._lru: "OrderedDict[SpecKey, SynthesisResult]" = OrderedDict()
        self._disk_dirty = False
        self.witnesses: Optional[WitnessStore] = None
        if self.disk_dir is not None:
            # Directories are made by the first write, so opening a cache only
            # to read it leaves nothing behind; a path taken by a file still
            # fails here, before any synthesis work is spent.
            if self.disk_dir.exists() and not self.disk_dir.is_dir():
                raise FileExistsError(f"cache directory {self.disk_dir} is not a directory")
            self._sweep_stale_tmp_files()
            self.witnesses = WitnessStore(self.disk_dir / WITNESS_SUBDIR)

    def __len__(self) -> int:
        return len(self._lru)

    # ---------------------------------------------------------------- lookup
    def lookup(
        self, problem: ImplicitDefinitionProblem
    ) -> Tuple[Optional[SynthesisResult], str]:
        """``(result, tier)`` with tier in ``"memory"``/``"disk"``/``"miss"``."""
        with get_tracer().span("cache.lookup") as span:
            result, tier = self._lookup(problem)
            span.set_attribute("tier", tier)
            return result, tier

    def _lookup(
        self, problem: ImplicitDefinitionProblem
    ) -> Tuple[Optional[SynthesisResult], str]:
        key = spec_key(problem)
        result = self._lru.get(key)
        if result is not None:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            return result, "memory"
        result = self.promote(problem)
        if result is not None:
            self.stats.hits += 1
            return result, "disk"
        self.stats.misses += 1
        return None, "miss"

    def get(self, problem: ImplicitDefinitionProblem) -> Optional[SynthesisResult]:
        return self.lookup(problem)[0]

    def peek(self, problem: ImplicitDefinitionProblem) -> Optional[str]:
        """The tier that *would* serve ``problem`` (no stats, no promotion).

        The async front-end uses this to decide whether a submission can be
        answered inline (warm) instead of entering the job queue; a peek must
        therefore never mutate LRU order or hit/miss counters.
        """
        if spec_key(problem) in self._lru:
            return "memory"
        if self.disk_dir is not None:
            payload_path, _ = self._entry_paths(spec_digest(problem))
            if payload_path.exists():
                return "disk"
        return None

    def promote(self, problem: ImplicitDefinitionProblem) -> Optional[SynthesisResult]:
        """Load ``problem``'s disk entry into the memory tier (``None``: absent or unreadable).

        Counts a disk hit but no hit: a disk ``lookup`` adds the hit itself,
        and the server's warm path answers from the memory tier next, whose
        lookup adds it.  Either way a read served from disk adds one to
        ``hits`` and one to ``disk_hits``.
        """
        if self.disk_dir is None:
            return None
        result = self._disk_load(spec_digest(problem))
        if result is not None:
            self.stats.disk_hits += 1
            self._memory_store(spec_key(problem), result)
        return result

    # ----------------------------------------------------------------- store
    def store(
        self,
        problem: ImplicitDefinitionProblem,
        result: SynthesisResult,
        digest: Optional[str] = None,
        cost_seconds: float = 0.0,
    ) -> str:
        """Write ``result`` through both tiers; returns the content digest.

        ``digest`` lets callers that already computed :func:`spec_digest`
        (the pipeline puts it in every report) avoid rendering φ twice.
        ``cost_seconds`` is the synthesis wall-time recorded in the sidecar —
        the recompute cost the disk tier's eviction policy keys on.
        """
        with get_tracer().span("cache.store") as span:
            if digest is None:
                digest = spec_digest(problem)
            self._memory_store(spec_key(problem), result)
            self.stats.stores += 1
            if self.disk_dir is not None:
                self._disk_store(digest, problem, result, cost_seconds)
                self.stats.disk_stores += 1
                self._disk_dirty = True
            span.set_attributes({"digest": digest, "disk": self.disk_dir is not None})
            return digest

    def store_memory(self, problem: ImplicitDefinitionProblem, result: SynthesisResult) -> None:
        """Populate only the in-memory tier (no sidecar, no disk write).

        Used by the server's parent process to adopt results synthesized in a
        worker process: the worker already wrote the disk tier (when one is
        configured), so the parent only needs the warm LRU slot.
        """
        self._memory_store(spec_key(problem), result)

    def _memory_store(self, key: SpecKey, result: SynthesisResult) -> None:
        lru = self._lru
        if key in lru:
            lru.move_to_end(key)
        lru[key] = result
        while len(lru) > self.capacity:
            lru.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is left untouched)."""
        self._lru.clear()

    # ----------------------------------------------------------- maintenance
    def maintain(self) -> None:
        """Size-bound the disk tiers after a store (called by the pipeline after every run).

        Canonical AST nodes need no bound here: the node table holds them
        weakly, so it shrinks with what the caches keep alive.
        """
        if self._disk_dirty:
            self._disk_dirty = False
            self._evict_cheapest_disk_entries()
        if self.witnesses is not None:
            self.witnesses.maintain()

    def _evict_cheapest_disk_entries(self) -> None:
        """Bound the disk tier, evicting cheapest-to-recompute entries first.

        Ordered by ``(synthesis_seconds, created)`` ascending: of two entries
        over budget, the one whose proof search was cheaper goes first; among
        equally cheap entries the oldest goes first.  Only runs after a disk
        store (``_disk_dirty``), so warm traffic never pays the directory
        scan, and a store under both bounds pays only a names-and-``stat``
        census (:func:`~repro.witness.store.disk_census`): the sidecars are
        read only when a bound is exceeded.
        """
        if self.disk_dir is None or (not self.disk_entry_bound and not self.disk_payload_bound):
            return
        count, total_bytes = disk_census(self.disk_dir)
        if not self._over_bounds(count, total_bytes):
            return
        entries = disk_entries(self.disk_dir)
        total_bytes = sum(entry.payload_bytes for entry in entries)
        count = len(entries)
        by_cost = sorted(entries, key=lambda entry: (entry.synthesis_seconds, entry.created))
        for victim in by_cost:
            if not self._over_bounds(count, total_bytes):
                break
            self._disk_evict(victim.digest)
            self.stats.disk_evictions += 1
            count -= 1
            total_bytes -= victim.payload_bytes

    def _over_bounds(self, count: int, total_bytes: int) -> bool:
        over_entries = self.disk_entry_bound and count > self.disk_entry_bound
        over_bytes = self.disk_payload_bound and total_bytes > self.disk_payload_bound
        return bool(over_entries or over_bytes)

    # ------------------------------------------------------------- disk tier
    #: A worker SIGTERMed mid-write (the sweep's per-job timeout) can leave a
    #: ``*.tmp`` file behind; anything older than this is safe to reap.  A
    #: process sweeps each directory at most once per this interval: a pool
    #: worker opens a cache per request, and listing both tiers on every open
    #: made a job's cost grow with the size of the directory.
    STALE_TMP_SECONDS = 600.0

    def _sweep_stale_tmp_files(self) -> None:
        key = os.path.abspath(self.disk_dir)
        now = time.monotonic()
        last = _LAST_TMP_SWEEP.get(key)
        if last is not None and now - last < self.STALE_TMP_SECONDS:
            return
        _LAST_TMP_SWEEP[key] = now
        cutoff = time.time() - self.STALE_TMP_SECONDS
        for tmp in (
            list(self.disk_dir.glob("*.tmp"))
            + list(self.disk_dir.glob(f"{WITNESS_SUBDIR}/*.tmp"))
        ):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                continue

    def _entry_paths(self, digest: str) -> Tuple[Path, Path]:
        assert self.disk_dir is not None
        return self.disk_dir / f"{digest}.pkl", self.disk_dir / f"{digest}.json"

    def _disk_load(self, digest: str) -> Optional[SynthesisResult]:
        payload_path, _ = self._entry_paths(digest)
        try:
            blob = payload_path.read_bytes()
        except OSError:
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            payload = None
        result = payload.get("result") if isinstance(payload, dict) else None
        if (
            not isinstance(result, SynthesisResult)
            or not isinstance(result.proof_size, int)
            or payload.get("simplifier") != simplifier_fingerprint()
        ):
            # A truncated entry, one simplified by another rule set, or one
            # written before results recorded their proof size must read as
            # a miss, never an error; drop it so the slot is rebuilt by the
            # next store.
            self._disk_evict(digest)
            return None
        return result

    def _disk_store(
        self,
        digest: str,
        problem: ImplicitDefinitionProblem,
        result: SynthesisResult,
        cost_seconds: float = 0.0,
    ) -> None:
        payload_path, meta_path = self._entry_paths(digest)
        blob = pickle.dumps(
            {"simplifier": simplifier_fingerprint(), "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        meta = DiskEntry(
            digest=digest,
            name=problem.name,
            expression=str(result.expression),
            expression_size=expr_size(result.expression),
            proof_size=result.proof_size,
            created=time.time(),
            payload_bytes=len(blob),
            synthesis_seconds=round(cost_seconds, 6),
        )
        atomic_write_bytes(payload_path, blob)
        atomic_write_bytes(meta_path, (json.dumps(meta.as_dict(), indent=2) + "\n").encode())

    def _disk_evict(self, digest: str) -> None:
        for path in self._entry_paths(digest):
            try:
                path.unlink()
            except OSError:
                pass

    def disk_entries(self) -> List[DiskEntry]:
        """Metadata of every persistent entry (newest first)."""
        if self.disk_dir is None:
            return []
        return disk_entries(self.disk_dir)


def disk_entries(disk_dir: os.PathLike) -> List[DiskEntry]:
    """Read every JSON sidecar under ``disk_dir`` (tolerating corrupt ones)."""
    entries = []
    for meta_path in sorted(Path(disk_dir).glob("*.json")):
        try:
            raw = json.loads(meta_path.read_text())
            entries.append(DiskEntry(**raw))
        except (OSError, ValueError, TypeError):
            continue
    entries.sort(key=lambda entry: entry.created, reverse=True)
    return entries
