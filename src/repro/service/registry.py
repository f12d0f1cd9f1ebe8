"""A named, discoverable registry of synthesis problems.

The paper's worked examples (:mod:`repro.specs.examples`) were plain module
functions; the service layer needs them addressable by name — ``python -m
repro synthesize union_view`` — and sweepable as a family.  Each
:class:`RegistryEntry` bundles

* a ``factory`` producing its :class:`ImplicitDefinitionProblem` (called
  once per entry and process, see :meth:`RegistryEntry.problem`),
* an optional ``instances(scale)`` builder of satisfying assignment families
  for the pipeline's batched verification stage, and
* an ``expected`` outcome: ``"ok"`` entries must synthesize with the bundled
  search, ``"xfail"`` marks the known interpolation limitation
  (``selection_view``, see DESIGN.md §7) and ``"hard"`` marks instances whose
  determinacy proofs exceed any practical automated-search budget (the
  nested Examples 1.1/4.1 — the paper leaves witness discovery open,
  Section 7).  Sweeps run ``"ok"`` entries by default and report the others
  instead of failing on them.

:func:`default_registry` returns the process-wide registry: the paper's
examples plus the parametric scenario families of
:mod:`repro.specs.examples` (scaled unions, intersections, pair towers, copy
chains) at several widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.logic.terms import Var
from repro.nr.values import Value
from repro.service import api
from repro.specs import examples
from repro.specs.problems import ImplicitDefinitionProblem

ProblemFactory = Callable[[], ImplicitDefinitionProblem]
InstanceFactory = Callable[[int], List[Mapping[Var, Value]]]

#: Expected sweep outcomes.
EXPECTED_OK = "ok"
EXPECTED_XFAIL = "xfail"
EXPECTED_HARD = "hard"


@dataclass(frozen=True)
class RegistryEntry:
    """One named synthesis problem plus its sweep/verification metadata."""

    name: str
    factory: ProblemFactory
    description: str
    tags: Tuple[str, ...] = ()
    instances: Optional[InstanceFactory] = None
    expected: str = EXPECTED_OK
    #: Proof-search depth sufficient for this entry (sweep default budget).
    max_depth: int = 12

    def problem(self) -> ImplicitDefinitionProblem:
        """The entry's problem: built by ``factory`` on the first call, then kept.

        Problems are immutable, and the memos they carry (determinacy
        sequent, content key and digest, canonical form) are what make a
        warm read cheap, so every caller in the process shares one object.
        The first call only builds it: interning and validation stay in the
        pipeline's validate stage, where they are timed.
        """
        problem = self.__dict__.get("_problem")
        if problem is None:
            problem = self.factory()
            object.__setattr__(self, "_problem", problem)
        return problem

    def describe(self) -> api.ProblemInfo:
        """The typed wire rendering of this entry (`/v1/problems`, `repro list`)."""
        return api.ProblemInfo(
            name=self.name,
            description=self.description,
            tags=self.tags,
            expected=self.expected,
            has_instances=self.instances is not None,
        )


class ProblemRegistry:
    """Name → :class:`RegistryEntry`, preserving registration order."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegistryEntry] = {}

    def add(self, entry: RegistryEntry) -> RegistryEntry:
        if entry.name in self._entries:
            raise ValueError(f"duplicate registry entry {entry.name!r}")
        self._entries[entry.name] = entry
        return entry

    def register(
        self,
        name: str,
        factory: ProblemFactory,
        description: str,
        tags: Sequence[str] = (),
        instances: Optional[InstanceFactory] = None,
        expected: str = EXPECTED_OK,
        max_depth: int = 12,
    ) -> RegistryEntry:
        return self.add(
            RegistryEntry(name, factory, description, tuple(tags), instances, expected, max_depth)
        )

    # ------------------------------------------------------------- discovery
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(self._entries.values())

    def names(self) -> List[str]:
        return list(self._entries)

    def get(self, name: str) -> RegistryEntry:
        entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "<empty registry>"
            raise KeyError(f"unknown problem {name!r}; known problems: {known}")
        return entry

    def problem(self, name: str) -> ImplicitDefinitionProblem:
        return self.get(name).problem()

    def entries(
        self, tag: Optional[str] = None, expected: Optional[str] = None
    ) -> List[RegistryEntry]:
        selected = list(self._entries.values())
        if tag is not None:
            selected = [entry for entry in selected if tag in entry.tags]
        if expected is not None:
            selected = [entry for entry in selected if entry.expected == expected]
        return selected

    def sweepable(self) -> List[RegistryEntry]:
        """The default sweep population: entries expected to synthesize."""
        return self.entries(expected=EXPECTED_OK)


# ---------------------------------------------------------------------------
def build_default_registry(
    union_widths: Sequence[int] = (3, 4, 5),
    intersection_widths: Sequence[int] = (3, 4),
    tower_widths: Sequence[int] = (2, 3),
    chain_lengths: Sequence[int] = (2, 3),
) -> ProblemRegistry:
    """The paper's examples plus parametric scenario families at these scales."""
    registry = ProblemRegistry()

    registry.register(
        "identity_view",
        examples.identity_view,
        "The view is extensionally the base; it determines the base (identity query).",
        tags=("paper", "flat"),
        instances=examples.identity_view_instances,
    )
    registry.register(
        "union_view",
        examples.union_view,
        "O ≡ V1 ∪ V2 over two flat views (the quickstart problem).",
        tags=("paper", "flat"),
        instances=lambda scale: examples.multi_union_view_instances(2, scale),
    )
    registry.register(
        "intersection_view",
        examples.intersection_view,
        "O ≡ V1 ∩ V2 over two flat views.",
        tags=("paper", "flat"),
        instances=lambda scale: examples.multi_intersection_view_instances(2, scale),
    )
    registry.register(
        "pair_of_views",
        examples.pair_of_views,
        "Product-typed output O ≡ <V1, V2> (Appendix G, product case).",
        tags=("paper", "product"),
        instances=lambda scale: examples.pair_tower_instances(2, scale),
    )
    registry.register(
        "unique_element",
        examples.unique_element,
        "Ur-typed output: the unique element of a singleton view, via get (Appendix G).",
        tags=("paper", "ur"),
        instances=examples.unique_element_instances,
    )
    registry.register(
        "selection_view",
        examples.selection_view,
        "Selection over an identity view; interpolation is a known limitation (DESIGN.md §7).",
        tags=("paper", "flat"),
        expected=EXPECTED_XFAIL,
        # A depth-5 search already reaches the proof whose interpolant
        # extraction hits the known limitation; deeper budgets only let the
        # search wander through larger proofs of the same dead end (minutes
        # of wall-time at depth 12+).  Bounding the depth keeps the xfail
        # fast and — together with the deterministic candidate enumeration in
        # proofs/search.py — seed-stable.
        max_depth=5,
    )
    registry.register(
        "example_4_1",
        examples.example_4_1,
        "Example 4.1: lossless flatten of a keyed nested relation (semantic checks only; "
        "automated witness search is impractical, Section 7).",
        tags=("paper", "nested"),
        instances=examples.example_4_1_instances,
        expected=EXPECTED_HARD,
    )
    registry.register(
        "example_1_1",
        examples.example_1_1,
        "Example 1.1: selection over a flatten view (semantic checks only; "
        "automated witness search is impractical, Section 7).",
        tags=("paper", "nested"),
        instances=examples.example_1_1_instances,
        expected=EXPECTED_HARD,
    )
    registry.register(
        "union_minus_view",
        examples.union_minus_view,
        "O ≡ (V1 ∪ V2) \\ V3: union and difference in one specification.",
        tags=("scenario", "flat"),
        instances=examples.union_minus_view_instances,
    )

    for width in union_widths:
        registry.register(
            f"union_of_{width}_views",
            (lambda w: lambda: examples.multi_union_view(w))(width),
            f"O ≡ V1 ∪ … ∪ V{width}: the union family scaled to {width} views.",
            tags=("scenario", "family:union", "flat"),
            instances=(lambda w: lambda scale: examples.multi_union_view_instances(w, scale))(width),
        )
    for width in intersection_widths:
        registry.register(
            f"intersection_of_{width}_views",
            (lambda w: lambda: examples.multi_intersection_view(w))(width),
            f"O ≡ V1 ∩ … ∩ V{width}: the intersection family scaled to {width} views.",
            tags=("scenario", "family:intersection", "flat"),
            instances=(lambda w: lambda scale: examples.multi_intersection_view_instances(w, scale))(
                width
            ),
        )
    for width in tower_widths:
        registry.register(
            f"pair_tower_{width}",
            (lambda w: lambda: examples.pair_tower(w))(width),
            f"O ≡ <V1, <V2, …>>: right-nested product of {width} views (recursive Appendix G).",
            tags=("scenario", "family:pair-tower", "product"),
            instances=(lambda w: lambda scale: examples.pair_tower_instances(w, scale))(width),
        )
    for length in chain_lengths:
        registry.register(
            f"copy_chain_{length}",
            (lambda n: lambda: examples.copy_chain(n))(length),
            f"A chain of {length} copy equivalences; proof size grows with the length.",
            tags=("scenario", "family:copy-chain", "flat"),
            instances=(lambda n: lambda scale: examples.copy_chain_instances(n, scale))(length),
            max_depth=16,
        )
    return registry


_DEFAULT_REGISTRY: Optional[ProblemRegistry] = None


def default_registry() -> ProblemRegistry:
    """The process-wide default registry (built once, lazily)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = build_default_registry()
    return _DEFAULT_REGISTRY
