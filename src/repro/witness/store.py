"""Content-addressed, crash-safe store of checked proof witnesses.

A *witness* is a focused proof of a determinacy sequent (Theorem 2's input).
The store keeps one pickle payload per witness under a ``witnesses/`` disk
subdirectory, addressed by :func:`witness_digest` — a SHA-256 over the
canonical rendering of the proof's conclusion sequent and the types of its
free variables.  Sequent renderings sort their members
(:class:`repro.proofs.sequents.Sequent.__str__`), so the address is
deterministic across processes and machines, exactly like the result tier's
:func:`repro.service.cache.spec_digest`.

Durability rules:

* every payload embeds :func:`witness_fingerprint` — bump
  :data:`WITNESS_FORMAT_VERSION` on any change to the payload shape or the
  proof calculus and old payloads silently re-read as cold misses;
* writes are atomic (write to ``*.tmp`` then ``os.replace``) so a worker
  killed mid-store never leaves a torn payload behind;
* **every** failure mode on the read path — absent file, truncated pickle,
  fingerprint skew, digest mismatch, a proof tree whose sequent no longer
  checks — logs, counts a ``repro_witness_misses_total`` sample and returns
  ``None``: the caller falls back to cold synthesis, never to an error.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ProofError
from repro.obs.metrics import get_registry
from repro.proofs.checker import check_proof
from repro.proofs.prooftree import FOCUSED_RULES, ProofNode, proof_size
from repro.proofs.sequents import Sequent, sequent_free_vars
from repro.specs.problems import ImplicitDefinitionProblem

_log = logging.getLogger("repro.witness")

#: Subdirectory (of a cache ``disk_dir``) holding witness payloads.
WITNESS_SUBDIR = "witnesses"

#: Bump on any change to the payload dict shape, the proof-tree format or
#: the address scheme of :func:`witness_digest`.
WITNESS_FORMAT_VERSION = 2

#: Default bound on stored witnesses per store (cost of a witness is one
#: pickle; the bound exists so interactive editing sessions cannot grow the
#: tier without limit).
DEFAULT_WITNESS_ENTRY_BOUND = 512

#: Bound on the in-process record LRU fronting the disk tier.  Records enter
#: it only after validating (at write or on a disk read); a memory hit is
#: checked again, which is free for a tree validated in this process.
DEFAULT_WITNESS_MEMORY_BOUND = 32


#: Every global an exported witness payload may name, as ``(module, name)``:
#: the proof tree, its sequents and problem, and the formula, term and type
#: nodes inside them.  Derived with ``pickletools.genops`` over the exported
#: payloads of the registry and the hand-written witnesses, plus the two
#: nodes those never contain: ``UnitType`` (a unit-typed spec) and
#: ``PairTerm`` (the premise of a ×η step).  An imported payload naming any
#: other global is refused before it is built (:class:`_WitnessUnpickler`).
WITNESS_PAYLOAD_GLOBALS = frozenset(
    {
        ("repro.logic.formulas", "And"),
        ("repro.logic.formulas", "Bottom"),
        ("repro.logic.formulas", "EqUr"),
        ("repro.logic.formulas", "Exists"),
        ("repro.logic.formulas", "Forall"),
        ("repro.logic.formulas", "Member"),
        ("repro.logic.formulas", "NeqUr"),
        ("repro.logic.formulas", "Or"),
        ("repro.logic.formulas", "Top"),
        ("repro.logic.terms", "PairTerm"),
        ("repro.logic.terms", "Proj"),
        ("repro.logic.terms", "Var"),
        ("repro.nr.types", "ProdType"),
        ("repro.nr.types", "SetType"),
        ("repro.nr.types", "UnitType"),
        ("repro.nr.types", "UrType"),
        ("repro.proofs.prooftree", "ProofNode"),
        ("repro.proofs.sequents", "Sequent"),
        ("repro.specs.problems", "ImplicitDefinitionProblem"),
    }
)


class _WitnessUnpickler(pickle.Unpickler):
    """Unpickles a payload from outside the program (CLI / HTTP import).

    Pickle runs whatever callable a payload names, so a plain
    ``pickle.loads`` of foreign bytes executes the sender's code before any
    validation sees the result.  Only :data:`WITNESS_PAYLOAD_GLOBALS` resolve.
    """

    def find_class(self, module: str, name: str) -> object:
        if (module, name) not in WITNESS_PAYLOAD_GLOBALS:
            raise pickle.UnpicklingError(f"global {module}.{name} is not part of a witness payload")
        return super().find_class(module, name)


def witness_fingerprint() -> str:
    """Version stamp baked into every persisted witness payload.

    A SHA-256 over :data:`WITNESS_FORMAT_VERSION`, the rule inventory of the
    focused calculus and the pickle protocol.  Any skew in these invalidates
    old payloads, and the read path answers ``None`` for anything it cannot
    trust, so the worst case is always a clean cold proof search.
    """
    parts = (
        f"format={WITNESS_FORMAT_VERSION}",
        "rules=" + ",".join(FOCUSED_RULES),
        f"pickle={pickle.HIGHEST_PROTOCOL}",
    )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def witness_digest(sequent: Sequent) -> str:
    """Stable hex content address of a witness (cross-process, cross-machine).

    A SHA-256 of the canonical rendering of its conclusion sequent plus the
    sorted ``name:type`` of every free variable.  Variables render by name
    only, so two goals that differ only in an input's type render alike;
    the typed variable list keeps their addresses apart.
    """
    typed = ",".join(sorted(f"{var.name}:{var.typ}" for var in sequent_free_vars(sequent)))
    return hashlib.sha256(f"sequent={sequent}|vars={typed}".encode("utf-8")).hexdigest()


@dataclass
class WitnessRecord:
    """One stored witness: the checked proof plus its provenance."""

    digest: str
    name: str
    proof: ProofNode
    created: float
    #: The specification the proof belongs to, when known.
    problem: Optional[ImplicitDefinitionProblem] = None

    @property
    def proof_size(self) -> int:
        return proof_size(self.proof)

    @property
    def sequent(self) -> Sequent:
        return self.proof.sequent


def export_witness(
    proof: ProofNode,
    name: str = "",
    problem: Optional[ImplicitDefinitionProblem] = None,
) -> dict:
    """A picklable, fingerprinted payload for ``proof``.

    The sequent rendering rides along explicitly so the read path can verify
    the content address without re-rendering a tree it does not yet trust.
    """
    return {
        "fingerprint": witness_fingerprint(),
        "digest": witness_digest(proof.sequent),
        "sequent": str(proof.sequent),
        "name": name,
        "created": time.time(),
        "proof": proof,
        "problem": problem,
    }


@dataclass
class WitnessStoreStats:
    """Counters for the witness tier (shape-compatible with ``CacheStats``)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalid_payloads: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class WitnessSummary:
    """One witness's sidecar metadata (``repro witness list``)."""

    digest: str
    name: str
    proof_size: int
    created: float
    payload_bytes: int = 0
    sequent: str = ""

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


class WitnessStore:
    """The ``witnesses/`` disk tier: digest → checked proof tree."""

    def __init__(
        self,
        root: os.PathLike,
        entry_bound: Optional[int] = DEFAULT_WITNESS_ENTRY_BOUND,
    ) -> None:
        # The directory is made by the first write, so a store opened only to
        # be read (``repro witness list``) leaves nothing behind.
        self.root = Path(root)
        self.entry_bound = entry_bound
        self.memory_bound = DEFAULT_WITNESS_MEMORY_BOUND
        self.stats = WitnessStoreStats()
        self._dirty = False
        # digest -> record.  LRU front for the disk tier: records read or
        # written once in this process skip the unpickle on repeat lookups.
        self._memory: "OrderedDict[str, WitnessRecord]" = OrderedDict()

    # ----------------------------------------------------------------- paths
    def path(self, digest: str) -> Path:
        return self.root / f"{digest}.pkl"

    def _meta_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def __contains__(self, digest: str) -> bool:
        return self.path(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))

    # ----------------------------------------------------------------- write
    def put(
        self,
        proof: ProofNode,
        name: str = "",
        problem: Optional[ImplicitDefinitionProblem] = None,
    ) -> WitnessRecord:
        """Persist ``proof``; returns the stored record.

        The tree passes the independent checker before anything touches
        disk, so the store only ever contains proofs that checked at write
        time (the read path checks again regardless).  A proof built or
        checked in this process carries the checker's validation mark and
        costs nothing to check here.
        """
        check_proof(proof)
        return self._store_payload(export_witness(proof, name=name, problem=problem))

    def import_payload(self, blob: bytes) -> Optional[WitnessRecord]:
        """Validate and adopt a serialized payload (CLI / HTTP import).

        Unlike :meth:`get`'s miss-only contract, an import is an explicit
        user action: a payload that does not validate raises
        :class:`~repro.errors.ProofError` instead of silently vanishing.
        """
        try:
            payload = _WitnessUnpickler(io.BytesIO(blob)).load()
        except Exception as exc:
            raise ProofError(f"witness payload does not unpickle: {exc}") from exc
        record = self._validate_payload(payload, digest=None, source="import")
        if record is None:
            raise ProofError("witness payload failed validation (see log for the reason)")
        check_proof(record.proof)
        self._store_payload(export_witness(record.proof, name=record.name, problem=record.problem))
        return record

    def export_payload(self, digest: str) -> Optional[bytes]:
        """The raw serialized payload for ``digest`` (CLI / HTTP export)."""
        try:
            return self.path(digest).read_bytes()
        except OSError:
            return None

    def _store_payload(self, payload: dict) -> WitnessRecord:
        digest = payload["digest"]
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        summary = WitnessSummary(
            digest=digest,
            name=payload["name"],
            proof_size=proof_size(payload["proof"]),
            created=payload["created"],
            payload_bytes=len(blob),
            sequent=payload["sequent"],
        )
        atomic_write_bytes(self.path(digest), blob)
        atomic_write_bytes(
            self._meta_path(digest),
            (json.dumps(summary.as_dict(), indent=2) + "\n").encode(),
        )
        self.stats.stores += 1
        self._dirty = True
        record = WitnessRecord(
            digest=digest,
            name=payload["name"],
            proof=payload["proof"],
            created=payload["created"],
            problem=payload["problem"],
        )
        self._remember(record)
        return record

    def _remember(self, record: WitnessRecord) -> None:
        memory = self._memory
        memory[record.digest] = record
        memory.move_to_end(record.digest)
        while len(memory) > self.memory_bound:
            memory.popitem(last=False)

    # ------------------------------------------------------------------ read
    def get(self, digest: str) -> Optional[WitnessRecord]:
        """The stored witness for ``digest``, or ``None`` as a cold fall-back.

        Every read hands back a proof that passed the checker in this
        process: a payload read from disk is unpickled without the
        validation mark and checked in full, a memory hit was validated when
        it entered.  Every failure mode is a *miss* — logged, counted under
        ``repro_witness_misses_total{reason=...}``, and (for corrupt
        payloads) evicted so the next store rebuilds the slot cleanly.
        """
        record = self._memory.get(digest)
        if record is None:
            record = self._read(digest)
            if record is None:
                return None
        try:
            check_proof(record.proof)
        except ProofError as exc:
            self._corrupt(digest, "invalid-proof", f"stored proof no longer checks: {exc}")
            return None
        self._remember(record)
        self.stats.hits += 1
        get_registry().counter(
            "repro_witness_hits_total", "Witness-store lookups served from disk"
        ).inc()
        return record

    def _read(self, digest: str) -> Optional[WitnessRecord]:
        """The unchecked record on disk for ``digest``; ``None`` is a counted miss."""
        try:
            blob = self.path(digest).read_bytes()
        except OSError:
            self._miss("absent")
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self._corrupt(digest, "truncated", "payload does not unpickle")
            return None
        return self._validate_payload(payload, digest=digest, source="disk")

    def get_for_sequent(self, sequent: Sequent) -> Optional[WitnessRecord]:
        """The stored witness proving exactly ``sequent``, if any."""
        return self.get(witness_digest(sequent))

    def _validate_payload(
        self, payload: object, digest: Optional[str], source: str
    ) -> Optional[WitnessRecord]:
        if not isinstance(payload, dict):
            self._corrupt(digest, "truncated", f"{source}: payload is not a dict")
            return None
        try:
            if payload["fingerprint"] != witness_fingerprint():
                self._corrupt(digest, "fingerprint", f"{source}: stale format fingerprint")
                return None
            proof = payload["proof"]
            sequent_text = payload["sequent"]
            claimed = payload["digest"]
            if not isinstance(proof, ProofNode) or not isinstance(getattr(proof, "sequent", None), Sequent):
                self._corrupt(digest, "truncated", f"{source}: payload proof is not a ProofNode")
                return None
            if claimed != witness_digest(proof.sequent) or (digest is not None and claimed != digest):
                self._corrupt(digest, "digest", f"{source}: content address mismatch")
                return None
            if str(proof.sequent) != sequent_text:
                self._corrupt(digest, "digest", f"{source}: proof sequent skews from address")
                return None
            name, created, problem = payload.get("name", ""), payload.get("created", 0.0), payload.get("problem")
            if not (
                isinstance(name, str)
                and isinstance(created, (int, float))
                and (problem is None or isinstance(problem, ImplicitDefinitionProblem))
            ):
                self._corrupt(digest, "truncated", f"{source}: malformed name, created or problem field")
                return None
            return WitnessRecord(
                digest=claimed,
                name=name,
                proof=proof,
                created=created,
                problem=problem,
            )
        except KeyError as exc:
            self._corrupt(digest, "truncated", f"{source}: payload missing field {exc}")
            return None

    def _miss(self, reason: str) -> None:
        self.stats.misses += 1
        get_registry().counter(
            "repro_witness_misses_total",
            "Witness-store lookups that fell back to cold synthesis",
            labelnames=("reason",),
        ).inc(reason=reason)

    def _corrupt(self, digest: Optional[str], reason: str, message: str) -> None:
        self.stats.invalid_payloads += 1
        _log.warning("witness %s rejected (%s): %s", digest or "<import>", reason, message)
        self._miss(reason)
        if digest is not None:
            self.delete(digest, count_eviction=False)

    # ------------------------------------------------------------- inventory
    def list(self) -> List[WitnessSummary]:
        """Sidecar metadata of every stored witness (newest first)."""
        summaries = [_read_summary(meta_path) for meta_path in sorted(self.root.glob("*.json"))]
        summaries = [summary for summary in summaries if summary is not None]
        summaries.sort(key=lambda summary: summary.created, reverse=True)
        return summaries

    def summary(self, digest: str) -> Optional[WitnessSummary]:
        """One witness's sidecar metadata (reads ``<digest>.json`` only)."""
        return _read_summary(self._meta_path(digest))

    def delete(self, digest: str, count_eviction: bool = True) -> bool:
        """Drop the payload and sidecar for ``digest``; True if anything went."""
        self._memory.pop(digest, None)
        removed = False
        for path in (self.path(digest), self._meta_path(digest)):
            try:
                path.unlink()
                removed = True
            except OSError:
                pass
        if removed and count_eviction:
            self.stats.evictions += 1
        return removed

    # ----------------------------------------------------------- maintenance
    def maintain(self) -> int:
        """Bound the tier (oldest witnesses evicted first); returns #evicted.

        Only runs after a store (``_dirty``) so warm traffic never pays the
        directory scan.
        """
        if not self._dirty:
            return 0
        self._dirty = False
        # Counting sidecar names is enough to see the bound holds; the
        # sidecars themselves are read only to order the victims.
        if not self.entry_bound or disk_census(self.root, payload_sizes=False)[0] <= self.entry_bound:
            return 0
        summaries = self.list()
        evicted = 0
        while len(summaries) - evicted > self.entry_bound:
            victim = summaries[len(summaries) - 1 - evicted]
            self.delete(victim.digest)
            evicted += 1
        return evicted


def _read_summary(meta_path: Path) -> Optional[WitnessSummary]:
    """A sidecar's metadata, or ``None`` when it is absent or corrupt."""
    try:
        return WitnessSummary(**json.loads(meta_path.read_text()))
    except (OSError, ValueError, TypeError):
        return None


def disk_census(directory: Path, payload_sizes: bool = True) -> Tuple[int, int]:
    """``(sidecars, payload bytes)`` of a disk tier, from names and ``stat``.

    Counts the ``*.json`` sidecars and, with ``payload_sizes``, sums the
    sizes of the ``*.pkl`` payloads (one ``stat`` each; ``0`` otherwise),
    without opening either, so a tier's bounds are checked without parsing
    its sidecars.  Both figures are upper bounds on what a sidecar listing
    reports (a corrupt sidecar or an orphaned payload counts here but not
    there), so a census under a bound means the listing is under it too.  A
    missing directory is ``(0, 0)``.
    """
    sidecars = payload_bytes = 0
    try:
        with os.scandir(directory) as scan:
            for entry in scan:
                if entry.name.endswith(".json"):
                    sidecars += 1
                elif payload_sizes and entry.name.endswith(".pkl"):
                    try:
                        payload_bytes += entry.stat().st_size
                    except OSError:
                        continue
    except OSError:
        pass
    return sidecars, payload_bytes


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-then-rename so concurrent readers never see a torn file.

    Creates the parent directory first: both disk tiers make their
    directories on first write, never when opened.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
