"""The versioned, typed contract of the synthesis service (wire format v1).

Every caller of the service — the ``python -m repro`` CLI, the asyncio HTTP
front-end (:mod:`repro.service.server`), sweep worker processes — speaks the
frozen dataclasses of this module instead of ad-hoc dicts.  The module is a
**leaf**: it imports nothing from the rest of the service layer, so requests
and responses can cross process boundaries (pickle) and the network (JSON)
without dragging pipeline machinery along.

Contracts
=========

* Requests — :class:`SynthesizeRequest`, :class:`VerifyRequest`,
  :class:`SweepRequest`.  Validation happens at construction (and again in
  :meth:`~Contract.from_json_dict`, which additionally rejects unknown and
  mistyped fields), so a malformed request is an :class:`ApiError` with code
  ``invalid_request`` *before* any synthesis machinery runs.
* Responses — :class:`SynthesisResult` (one pipeline run: digest, cache tier,
  per-stage timings, the synthesized definition, an optional verification
  summary), :class:`ProblemInfo` (one registry entry), :class:`SweepResponse`
  / :class:`SweepOutcome` (a parallel sweep), :class:`JobStatus` (one async
  job's lifecycle), :class:`SweepJobStatus` (an async sweep's lifecycle),
  :class:`ProblemPage` (paginated listings), and the cache-stats pair
  :class:`DiskCacheStats` / :class:`ProcessCacheStats`.
* Errors — :class:`ApiError`, a structured taxonomy (:data:`ERROR_CODES`)
  with an HTTP status per code and a JSON rendering, so the CLI and the HTTP
  server map the same failure to the same message.

The wire is declared once
=========================

Each contract is a frozen dataclass deriving from :class:`Contract`, whose
one codec reads the schema off the dataclass fields and their annotations:
``str``/``int``/``float``/``bool`` scalars (``bool`` is never an ``int``; an
``int`` widens to a ``float`` field), ``Optional[X]``, ``Tuple[X, ...]``,
``Mapping[str, V]`` and nested contracts.  Decoding rejects unknown keys,
missing required fields and mistyped values, container elements included.
The plan is resolved once per class, on first use.

Keys are emitted in field order.  Each field declares its emit rule as field
metadata: a plain field is always emitted, a field declared with
:func:`_omit_at_default` is left out while it equals its default, and a
``_LOCAL`` field (``SynthesisResult.display``) never travels.  Only
:class:`SynthesisResult` (the computed ``cache_hit`` key and the
``expression`` group) and :class:`ProcessCacheStats` (the ``"process"``
envelope) adjust the derived rendering by hand.

Serialization is deterministic: ``X.from_json(x.to_json()) == x`` for every
contract type (the round-trip is property-tested), equal values render
byte-identically, and ``tests/golden/wire_v1.json`` pins the bytes.  The
JSON reader rejects ``NaN`` and ``±Infinity``.
"""

from __future__ import annotations

import json
import math
from collections import abc
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from repro.errors import ProofSearchError

#: The wire-format version; every HTTP route is prefixed with it.
API_VERSION = "v1"

#: Default verification family size when a request verifies (``scale`` rows).
DEFAULT_VERIFY_SCALE = 24

#: Job lifecycle states (see :class:`JobStatus`).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)


# ------------------------------------------------------------------ the codec
#: Field-metadata key of a field's emit rule; a field without it is always
#: emitted.
_EMIT = "emit"
#: Emit rule: left out of the rendering while the value equals the default.
_OMIT_DEFAULT = "omit_default"
#: Emit rule: transport-local, neither emitted nor accepted on the wire.
_LOCAL = "local"
_ALWAYS = object()


def _omit_at_default(default=MISSING, *, default_factory=MISSING):
    """A field the rendering leaves out while it equals its default."""
    return field(default=default, default_factory=default_factory, metadata={_EMIT: _OMIT_DEFAULT})


def _scalar(typ: type, where: str, widen: bool = True):
    """Decode a ``typ`` scalar.  The type test is exact, so ``True`` is not an
    ``int``; an ``int`` is accepted as a ``float``, and converted when
    ``widen`` (fields) or kept as is (map values, so their bytes round-trip)."""

    def decode(value):
        if type(value) is typ:
            return value
        if typ is float and type(value) is int:
            return float(value) if widen else value
        raise invalid_request(f"{where} must be {typ.__name__}, got {type(value).__name__}")

    return decode


def _container(typ: type, where: str, value) -> None:
    if not isinstance(value, typ):
        raise invalid_request(f"{where} must be {typ.__name__}, got {type(value).__name__}")


def _codec(hint, where: str):
    """``(encode, decode)`` for one annotation; ``encode`` is ``None`` when the
    value goes on the wire as is, and ``where`` names it in error messages."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        (inner,) = [arg for arg in args if arg is not type(None)]
        encode, decode = _codec(inner, where)
        return (
            None if encode is None else (lambda value: None if value is None else encode(value)),
            lambda value: None if value is None else decode(value),
        )
    if origin is tuple:
        item_encode, item_decode = _codec(args[0], f"{where} item")

        def decode_tuple(value):
            _container(list, where, value)
            return tuple(item_decode(item) for item in value)

        if item_encode is None:
            return list, decode_tuple
        return (lambda value: [item_encode(item) for item in value]), decode_tuple
    if origin is abc.Mapping:
        check = None if args[1] is object else _scalar(args[1], f"{where} value", widen=False)

        def decode_mapping(value):
            _container(dict, where, value)
            if check is not None:
                for item in value.values():
                    check(item)
            return value

        return dict, decode_mapping
    if isinstance(hint, type) and issubclass(hint, Contract):
        # Looked up per call, so a wrapped or overridden codec is honoured.
        return (lambda value: value.to_json_dict()), (lambda value: hint.from_json_dict(value))
    if hint in (str, int, float, bool):
        return None, _scalar(hint, where)
    raise TypeError(f"no wire codec for annotation {hint!r} ({where})")


class _WirePlan:
    """A contract class's codec, resolved from its fields and annotations."""

    __slots__ = ("keys", "emit", "parse", "coerce")

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        self.emit = []  # (name, encode, value omitted at or _ALWAYS)
        self.parse = []  # (name, decode, required)
        self.coerce = []  # (name, tuple | dict): containers normalized at construction
        for spec in fields(cls):
            hint = hints[spec.name]
            if get_origin(hint) in (tuple, abc.Mapping):
                self.coerce.append((spec.name, tuple if get_origin(hint) is tuple else dict))
            rule = spec.metadata.get(_EMIT)
            if rule == _LOCAL:
                continue
            encode, decode = _codec(hint, f"field {spec.name!r}")
            has_default = spec.default is not MISSING or spec.default_factory is not MISSING
            omit = _ALWAYS
            if rule == _OMIT_DEFAULT:
                omit = spec.default if spec.default is not MISSING else spec.default_factory()
            self.emit.append((spec.name, encode, omit))
            self.parse.append((spec.name, decode, not has_default))
        self.keys = frozenset(name for name, _, _ in self.parse)


def _build_plan(cls: type) -> _WirePlan:
    # Built on first use, after every class it refers to exists; two threads
    # racing here build the same plan twice, which is harmless.
    cls._wire_plan = _WirePlan(cls)
    return cls._wire_plan


def _json_object(kind: str, payload, keys) -> Mapping[str, object]:
    """``payload`` as a JSON object of ``kind`` whose keys all lie in ``keys``."""
    if not isinstance(payload, abc.Mapping):
        raise invalid_request(f"{kind} payload must be a JSON object, got {type(payload).__name__}")
    unknown = payload.keys() - keys
    if unknown:
        raise invalid_request(
            f"{kind} has unknown field(s): {', '.join(sorted(unknown))}",
            unknown_fields=sorted(unknown),
        )
    return payload


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


_JSON_READER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)


def _parse_json_object(text) -> Mapping[str, object]:
    try:
        payload = _JSON_READER.decode(text)
    except (ValueError, TypeError) as exc:
        raise invalid_request(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, abc.Mapping):
        raise invalid_request(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class Contract:
    """Base of the wire contracts: the JSON codec derived from the fields.

    Subclasses are frozen dataclasses; a subclass ``__post_init__`` calls
    ``super().__post_init__()`` first, which turns ``Tuple`` fields into
    tuples and copies ``Mapping`` fields into fresh dicts.
    """

    #: The class's :class:`_WirePlan`, built on first use.
    _wire_plan = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._wire_plan = None
        # Each contract holds the codec methods in its own namespace, so one
        # class's codec can be wrapped without touching the others (the
        # benchmark's per-layer instrumentation patches ``JobStatus.to_json_dict``
        # and ``SynthesizeRequest.from_json`` that way).
        for name in ("to_json_dict", "from_json_dict", "to_json", "from_json"):
            if name not in cls.__dict__:
                setattr(cls, name, Contract.__dict__[name])

    def __post_init__(self) -> None:
        for name, coerce in (self._wire_plan or _build_plan(type(self))).coerce:
            object.__setattr__(self, name, coerce(getattr(self, name)))

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for name, encode, omit in (self._wire_plan or _build_plan(type(self))).emit:
            value = getattr(self, name)
            if omit is _ALWAYS or value != omit:
                payload[name] = value if encode is None else encode(value)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]):
        plan = cls._wire_plan or _build_plan(cls)
        _json_object(cls.__name__, payload, plan.keys)
        values = {}
        for name, decode, required in plan.parse:
            value = payload.get(name, MISSING)
            if value is not MISSING:
                values[name] = decode(value)
            elif required:
                raise invalid_request(f"missing required field {name!r}")
        return cls(**values)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(_parse_json_object(text))


# ----------------------------------------------------------------- the errors
#: Error code → HTTP status.  The taxonomy is closed: every failure the
#: service can surface maps onto exactly one of these codes.
ERROR_CODES: Dict[str, int] = {
    "invalid_request": 400,  # malformed request (bad field, bad type, bad JSON)
    "parse_error": 400,  # spec_text did not parse (position info in detail)
    "not_found": 404,  # no such route / resource
    "unknown_problem": 404,  # the registry has no entry with this name
    "unknown_job": 404,  # no job with this id
    "no_trace": 404,  # the job exists but recorded no trace (tracing disabled)
    "synthesis_failed": 422,  # the synthesis stack raised (search, interpolation…)
    "verification_failed": 422,  # the definition mismatched its instance family
    "timeout": 504,  # the job exceeded its per-job deadline
    "cancelled": 409,  # the job was cancelled before it finished
    "queue_full": 429,  # the bounded job queue rejected the submission
    "internal": 500,  # anything unexpected (worker crash, server bug)
}


@dataclass(frozen=True)
class ErrorInfo(Contract):
    """The data of a structured error (embeddable in :class:`JobStatus`)."""

    code: str
    message: str
    detail: Mapping[str, object] = _omit_at_default(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown API error code {self.code!r}")

    @property
    def http_status(self) -> int:
        return ERROR_CODES[self.code]


class ApiError(Exception):
    """A structured service failure: taxonomy code + message + detail."""

    def __init__(self, code: str, message: str, detail: Optional[Mapping[str, object]] = None):
        super().__init__(message)
        self.info = ErrorInfo(code, message, detail or {})

    @property
    def code(self) -> str:
        return self.info.code

    @property
    def message(self) -> str:
        return self.info.message

    @property
    def detail(self) -> Mapping[str, object]:
        return self.info.detail

    @property
    def http_status(self) -> int:
        return self.info.http_status

    def to_json_dict(self) -> Dict[str, object]:
        return {"error": self.info.to_json_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_info(cls, info: ErrorInfo) -> "ApiError":
        return cls(info.code, info.message, info.detail)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "ApiError":
        body = payload.get("error", payload)
        if not isinstance(body, abc.Mapping):
            raise ValueError(f"malformed error payload: {payload!r}")
        return cls.from_info(ErrorInfo.from_json_dict(body))


def invalid_request(message: str, **detail: object) -> ApiError:
    return ApiError("invalid_request", message, detail)


def unknown_problem(message: str) -> ApiError:
    return ApiError("unknown_problem", message)


def parse_error(message: str, **detail: object) -> ApiError:
    """A ``spec_text`` that failed to parse; ``detail`` carries the position
    (``line``/``column``/``offset``) reported by the spec-language parser."""
    return ApiError("parse_error", message, detail)


def unknown_job(job_id: str) -> ApiError:
    return ApiError("unknown_job", f"unknown job {job_id!r}", {"job_id": job_id})


def queue_full(limit: int) -> ApiError:
    return ApiError(
        "queue_full",
        f"job queue is full ({limit} jobs queued or running); retry later",
        {"queue_limit": limit},
    )


def job_timeout(seconds: float) -> ApiError:
    return ApiError(
        "timeout",
        f"job exceeded its timeout of {seconds:.1f}s",
        {"timeout_seconds": seconds},
    )


def job_cancelled(job_id: str) -> ApiError:
    return ApiError("cancelled", f"job {job_id!r} was cancelled", {"job_id": job_id})


def synthesis_failure(exc: BaseException, expected: str = "ok") -> ApiError:
    """Map a synthesis-stack exception onto the taxonomy.

    ``expected`` is the registry expectation of the entry that failed; a
    non-``"ok"`` value appends the known-limitation note the CLI has always
    printed, so the message is transport-independent.
    """
    note = ""
    if expected != "ok":
        note = f" (a known limitation: this entry is marked {expected!r} in the registry)"
    detail = {"error_type": type(exc).__name__, "expected": expected}
    if isinstance(exc, ProofSearchError) and exc.detail:
        detail["search"] = exc.detail
    return ApiError("synthesis_failed", f"{type(exc).__name__}: {exc}{note}", detail)


# ------------------------------------------------------------------- requests
def _check_timeout(timeout: Optional[float]) -> None:
    # A NaN or infinite timeout would disable the job deadline.
    if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
        raise invalid_request("timeout must be positive and finite")


@dataclass(frozen=True)
class SynthesizeRequest(Contract):
    """Run one registry problem through the staged pipeline.

    ``verify_scale`` > 0 additionally verifies the definition on that many
    generated satisfying instances (skipped when the entry has no instance
    generator).  ``cache_dir`` overrides the service's persistent cache
    directory for this request.  ``timeout`` bounds asynchronous execution
    (seconds); inline callers ignore it.

    ``spec_text`` submits a textual problem (spec-language syntax, see
    :mod:`repro.specs.lang`) instead of a registry name: exactly one of
    ``problem``/``spec_text`` must be given.  A ``spec_text`` that fails to
    parse surfaces as a ``parse_error`` with position detail.

    ``ancestor`` (the witness digest of the spec this one was edited from)
    is accepted and ignored: it is still decoded and validated so that old
    clients keep working, and an edit is synthesized cold.
    """

    problem: str = _omit_at_default("")
    max_depth: Optional[int] = _omit_at_default(None)
    verify_scale: int = _omit_at_default(0)
    cache_dir: Optional[str] = _omit_at_default(None)
    include_raw: bool = _omit_at_default(False)
    timeout: Optional[float] = _omit_at_default(None)
    spec_text: Optional[str] = _omit_at_default(None)
    ancestor: Optional[str] = _omit_at_default(None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.spec_text is None:
            if not isinstance(self.problem, str) or not self.problem:
                raise invalid_request("problem must be a non-empty registry name")
        else:
            if not isinstance(self.spec_text, str) or not self.spec_text.strip():
                raise invalid_request("spec_text must be a non-empty problem text")
            if self.problem:
                raise invalid_request("pass either problem or spec_text, not both")
        if self.max_depth is not None and self.max_depth < 1:
            raise invalid_request("max_depth must be at least 1")
        if self.verify_scale < 0:
            raise invalid_request("verify_scale must be non-negative")
        _check_timeout(self.timeout)
        if self.ancestor is not None and (
            not isinstance(self.ancestor, str) or not self.ancestor
        ):
            raise invalid_request("ancestor must be a non-empty witness digest")


@dataclass(frozen=True)
class VerifyRequest(Contract):
    """Synthesize + check the definition on a generated instance family."""

    problem: str
    scale: int = DEFAULT_VERIFY_SCALE
    max_depth: Optional[int] = _omit_at_default(None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.problem, str) or not self.problem:
            raise invalid_request("problem must be a non-empty registry name")
        if self.scale < 1:
            raise invalid_request(
                "scale must be at least 1: verifying zero instances verifies nothing"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise invalid_request("max_depth must be at least 1")

    def to_synthesize(self) -> SynthesizeRequest:
        return SynthesizeRequest(
            problem=self.problem, max_depth=self.max_depth, verify_scale=self.scale
        )


@dataclass(frozen=True)
class SweepRequest(Contract):
    """Run many registry problems through the parallel worker pool.

    The body of ``POST /v1/sweeps`` and of the CLI's in-process sweep.

    An empty ``problems`` tuple sweeps the default population (every entry
    expected to synthesize) unless ``include_all`` asks for the full registry.
    """

    problems: Tuple[str, ...] = _omit_at_default(())
    include_all: bool = _omit_at_default(False)
    processes: Optional[int] = _omit_at_default(None)
    timeout: Optional[float] = _omit_at_default(None)
    verify_scale: int = _omit_at_default(0)
    cache_dir: Optional[str] = _omit_at_default(None)
    max_depth: Optional[int] = _omit_at_default(None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(not isinstance(name, str) or not name for name in self.problems):
            raise invalid_request("problems must be non-empty registry names")
        if self.problems and self.include_all:
            raise invalid_request("pass either explicit problems or include_all, not both")
        if self.processes is not None and self.processes < 1:
            raise invalid_request("processes must be at least 1")
        _check_timeout(self.timeout)
        if self.verify_scale < 0:
            raise invalid_request("verify_scale must be non-negative")
        if self.max_depth is not None and self.max_depth < 1:
            raise invalid_request("max_depth must be at least 1")


# ------------------------------------------------------------------ responses
@dataclass(frozen=True)
class ProblemInfo(Contract):
    """One registry entry's discoverable metadata."""

    name: str
    description: str
    tags: Tuple[str, ...] = ()
    expected: str = "ok"
    has_instances: bool = False


@dataclass(frozen=True)
class StageReport(Contract):
    """One named pipeline stage: wall-clock seconds + provenance detail."""

    name: str
    seconds: float
    detail: Mapping[str, object] = _omit_at_default(default_factory=dict)


@dataclass(frozen=True)
class VerificationSummary(Contract):
    """Tally of the verification stage."""

    checked: int
    satisfying: int
    ok: bool


@dataclass(frozen=True)
class SynthesisResult(Contract):
    """The wire rendering of one pipeline run (the service's main response).

    ``display`` carries transport-local conveniences (the pretty-printed
    definition for terminal rendering); it is excluded from serialization and
    from equality, so round-tripping through JSON preserves ``==``.

    ``source`` is the synthesis provenance on a cache miss — ``"witness"``
    (a stored proof replayed verbatim) or ``"cold"`` — and ``None`` on cache
    hits, where no synthesis ran at all.  ``"incremental"`` (a search seeded
    from an ancestor witness) still decodes but is no longer produced.
    """

    problem: str
    digest: str
    cache_tier: str
    total_seconds: float
    stages: Tuple[StageReport, ...] = ()
    expression: Optional[str] = None
    expression_size: Optional[int] = None
    proof_size: Optional[int] = None
    raw_expression: Optional[str] = _omit_at_default(None)
    verification: Optional[VerificationSummary] = _omit_at_default(None)
    source: Optional[str] = _omit_at_default(None)
    display: Mapping[str, str] = field(
        default_factory=dict, compare=False, repr=False, metadata={_EMIT: _LOCAL}
    )

    @property
    def cache_hit(self) -> bool:
        return self.cache_tier in ("memory", "disk")

    def to_json_dict(self) -> Dict[str, object]:
        # The computed ``cache_hit`` follows ``cache_tier``, and the
        # expression group is emitted whole when there is an expression.
        wire = super().to_json_dict()
        if self.expression is None:
            for key in ("expression", "expression_size", "proof_size"):
                del wire[key]
        head = {key: wire.pop(key) for key in ("problem", "digest", "cache_tier")}
        return {**head, "cache_hit": self.cache_hit, **wire}

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "SynthesisResult":
        if isinstance(payload, abc.Mapping) and "cache_hit" in payload:
            payload = {key: value for key, value in payload.items() if key != "cache_hit"}
        return super().from_json_dict(payload)


@dataclass(frozen=True)
class JobStatus(Contract):
    """One asynchronous job's lifecycle snapshot.

    ``state`` walks ``queued → running → done | failed | cancelled``;
    warm-cache submissions are born ``done`` (they never enter the queue).
    ``result`` is set on ``done``; ``error`` on ``failed``/``cancelled``.
    """

    id: str
    state: str
    problem: str
    submitted_at: float
    started_at: Optional[float] = _omit_at_default(None)
    finished_at: Optional[float] = _omit_at_default(None)
    result: Optional[SynthesisResult] = _omit_at_default(None)
    error: Optional[ErrorInfo] = _omit_at_default(None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.state not in JOB_STATES:
            raise invalid_request(f"unknown job state {self.state!r}")

    @property
    def finished(self) -> bool:
        return self.state in (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@dataclass(frozen=True)
class SweepOutcome(Contract):
    """Flat wire record of one sweep job: the problem's synthesis outcome.

    ``status`` is ``"ok"``, ``"error"`` or ``"timeout"``; ``expected`` is the
    registry expectation of the entry, so a failure on an entry that is not
    expected to synthesize does not fail the sweep.
    """

    name: str
    status: str
    seconds: float
    expected: str = "ok"
    cache_tier: str = "off"
    expression: Optional[str] = None
    expression_size: Optional[int] = None
    proof_size: Optional[int] = None
    verified: Optional[bool] = None
    error: Optional[str] = None
    stage_seconds: Mapping[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def unexpected_failure(self) -> bool:
        """A failure on an entry that was expected to synthesize cleanly."""
        return self.status != "ok" and self.expected == "ok"

    def to_stable_json_dict(self) -> Dict[str, object]:
        """The deterministic projection: everything except timings/placement.

        Two runs of the same problem must render byte-identically here no
        matter which runner ran them or how warm its caches were — the
        inline-vs-process and CLI-vs-HTTP sweep parity checks compare exactly
        this projection.
        """
        payload = self.to_json_dict()
        for key in ("seconds", "cache_tier", "stage_seconds"):
            del payload[key]
        return payload


@dataclass(frozen=True)
class SpanInfo(Contract):
    """One finished trace span (see :mod:`repro.obs.trace`).

    ``start`` is wall-clock epoch seconds; ``seconds`` is the
    ``perf_counter``-measured duration.  ``parent_id`` is omitted from the
    JSON rendering for root spans, and ``attributes`` when empty.
    """

    trace_id: str
    span_id: str
    name: str
    start: float
    seconds: float
    parent_id: Optional[str] = _omit_at_default(None)
    attributes: Mapping[str, object] = _omit_at_default(default_factory=dict)


@dataclass(frozen=True)
class TraceInfo(Contract):
    """The span tree recorded for one trace (``GET /v1/jobs/<id>/trace``)."""

    trace_id: str
    job_id: str = ""
    spans: Tuple[SpanInfo, ...] = ()


@dataclass(frozen=True)
class SweepResponse(Contract):
    """All sweep outcomes plus aggregate counters."""

    wall_seconds: float
    processes: int
    counts: Mapping[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    ok: bool = True
    jobs: Tuple[SweepOutcome, ...] = ()

    def to_stable_json_dict(self) -> Dict[str, object]:
        """Deterministic projection of the whole sweep (see ``SweepOutcome``)."""
        return {
            "counts": dict(self.counts),
            "ok": self.ok,
            "jobs": [job.to_stable_json_dict() for job in self.jobs],
        }

    def to_stable_json(self) -> str:
        return json.dumps(self.to_stable_json_dict(), indent=2)


@dataclass(frozen=True)
class SweepJobStatus(Contract):
    """One asynchronous *sweep* job's lifecycle.

    The sweep-level analogue of :class:`JobStatus`: ``state`` walks the same
    ``queued → running → done | failed | cancelled`` lattice, ``result``
    carries the :class:`SweepResponse` on ``done`` and ``error`` the terminal
    failure otherwise.
    """

    id: str
    state: str
    submitted_at: float
    started_at: Optional[float] = _omit_at_default(None)
    finished_at: Optional[float] = _omit_at_default(None)
    result: Optional[SweepResponse] = _omit_at_default(None)
    error: Optional[ErrorInfo] = _omit_at_default(None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.state not in JOB_STATES:
            raise invalid_request(f"unknown job state {self.state!r}")

    @property
    def finished(self) -> bool:
        return self.state in (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@dataclass(frozen=True)
class ProblemPage(Contract):
    """One page of registry entries (``GET /v1/problems`` with ``limit``).

    ``next_cursor`` is an opaque token for the next page; ``None`` means the
    listing is exhausted.  Ordering is stable (registration order), so pages
    taken across requests tile the registry without gaps or duplicates.
    """

    problems: Tuple[ProblemInfo, ...] = ()
    next_cursor: Optional[str] = _omit_at_default(None)


@dataclass(frozen=True)
class CacheEntryInfo(Contract):
    """One persistent cache entry's sidecar metadata."""

    digest: str
    name: str
    expression: str
    expression_size: int
    proof_size: int
    created: float
    payload_bytes: int = 0
    synthesis_seconds: float = 0.0


@dataclass(frozen=True)
class DiskCacheStats(Contract):
    """Persistent-tier inventory of a cache directory.

    ``next_cursor`` is set when the entry listing was paginated (``limit``
    query param): an opaque token for the next page, omitted from the JSON
    rendering when the listing is complete so unpaginated responses render
    exactly as they did before pagination existed.
    """

    cache_dir: str
    entries: Tuple[CacheEntryInfo, ...] = ()
    total_payload_bytes: int = 0
    next_cursor: Optional[str] = _omit_at_default(None)


@dataclass(frozen=True)
class ProcessCacheStats(Contract):
    """This process's in-memory cache telemetry (no ``cache_dir`` given).

    On the wire the fields sit inside a ``{"process": {...}}`` envelope.
    """

    intern_table: Mapping[str, object] = field(default_factory=dict)
    #: Empty since the shared value interner was retired; the field stays in
    #: the v1 wire contract.
    shared_value_interner: Mapping[str, object] = field(default_factory=dict)
    #: Transposition-table sizes of the most recent proof search
    #: (:func:`repro.proofs.search.last_tables_stats`).
    search_tables: Mapping[str, object] = field(default_factory=dict)
    #: The serving process's two-tier result-cache counters
    #: (:class:`repro.service.cache.CacheStats`).
    result_cache: Mapping[str, object] = field(default_factory=dict)
    #: The witness tier's counters (:class:`repro.witness.store.
    #: WitnessStoreStats`); empty when the cache has no disk directory.
    witness_store: Mapping[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        return {"process": super().to_json_dict()}

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "ProcessCacheStats":
        envelope = _json_object(cls.__name__, payload, {"process"})
        return super().from_json_dict(envelope.get("process", {}))


@dataclass(frozen=True)
class WitnessInfo(Contract):
    """One stored proof witness's metadata (``GET /v1/witnesses``)."""

    digest: str
    name: str = ""
    proof_size: int = 0
    created: float = 0.0
    payload_bytes: int = 0
    sequent: str = _omit_at_default("")

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.digest, str) or not self.digest:
            raise invalid_request("witness digest must be a non-empty string")


@dataclass(frozen=True)
class WitnessPage(Contract):
    """The witness-store inventory (``GET /v1/witnesses``), newest first."""

    witnesses: Tuple[WitnessInfo, ...] = ()


@dataclass(frozen=True)
class WitnessPayload(Contract):
    """One witness with its portable payload, base64-encoded.

    The body of ``GET /v1/witnesses/<digest>`` and of ``PUT /v1/witnesses``
    (the import direction, where ``info`` may be elided — the receiving store
    re-derives every metadatum by re-checking the proof).
    """

    payload: str
    info: Optional[WitnessInfo] = _omit_at_default(None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.payload, str) or not self.payload:
            raise invalid_request("witness payload must be a non-empty base64 string")


#: Every serializable contract type, for the round-trip property tests.
CONTRACT_TYPES = (
    ErrorInfo,
    SynthesizeRequest,
    VerifyRequest,
    SweepRequest,
    ProblemInfo,
    ProblemPage,
    StageReport,
    VerificationSummary,
    SynthesisResult,
    JobStatus,
    SweepOutcome,
    SpanInfo,
    TraceInfo,
    SweepResponse,
    SweepJobStatus,
    CacheEntryInfo,
    DiskCacheStats,
    ProcessCacheStats,
    WitnessInfo,
    WitnessPage,
    WitnessPayload,
)
