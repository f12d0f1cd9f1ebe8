"""Implicit-definition and view-rewriting problem descriptions (Section 4).

An :class:`ImplicitDefinitionProblem` packages a Δ0 specification
``φ(ī, ā, o)`` together with the designated input variables ``ī``, the output
variable ``o`` and the auxiliary variables ``ā``.  It can produce

* the *determinacy sequent* ``φ(ī,ā,o) ∧ φ(ī,ā',o') ⊢ o ≡ o'`` whose focused
  proof is the witness consumed by the synthesis algorithm (Theorem 2), and
* semantic checks of implicit definability on concrete instances (used by the
  test-suite to validate both the examples and the synthesizer output).

A :class:`ViewRewritingProblem` describes determinacy of an NRC query by NRC
views (Corollary 3); it lowers to an ``ImplicitDefinitionProblem`` via the
input–output specifications of Appendix B (see :mod:`repro.specs.io_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, TypeVar

from repro.core.node import dataclass_field_names, dataclass_state
from repro.errors import SpecificationError
from repro.logic.formulas import Formula
from repro.logic.free_vars import free_vars, substitute_many
from repro.logic.macros import equivalent, negate
from repro.logic.semantics import eval_formula
from repro.logic.terms import Var
from repro.logic.typecheck import check_formula
from repro.nr.values import Value
from repro.proofs.sequents import Sequent
from repro.nrc.expr import NRCExpr, NVar

T = TypeVar("T")


@dataclass(frozen=True)
class ImplicitDefinitionProblem:
    """A Δ0 specification implicitly defining ``output`` from ``inputs``."""

    name: str
    phi: Formula
    inputs: Tuple[Var, ...]
    output: Var
    auxiliaries: Tuple[Var, ...] = ()

    def __post_init__(self) -> None:
        check_formula(self.phi, allow_membership=False)
        declared = set(self.inputs) | {self.output} | set(self.auxiliaries)
        undeclared = free_vars(self.phi) - declared
        if undeclared:
            raise SpecificationError(f"specification mentions undeclared variables {undeclared}")
        if self.output in self.inputs:
            raise SpecificationError("the output variable cannot also be an input")

    # Values derived from the five fields alone are built once per instance
    # and kept in the instance ``__dict__`` (see :meth:`memo`): the primed
    # copy and the determinacy sequent (``_determinacy_memo``), and the
    # service's content key, content digest and validated canonical form
    # (``repro.service.cache`` / ``repro.service.pipeline``).  They stay out
    # of equality and hashing (dataclass-generated from the fields) and out
    # of pickles both ways: a problem crossing a worker pipe or a disk tier
    # carries its fields only, a payload cannot plant a memo, and the
    # receiving process rebuilds each memo on first use.
    __getstate__ = dataclass_state

    def __setstate__(self, state: object) -> None:
        if not isinstance(state, dict):
            raise TypeError(f"ImplicitDefinitionProblem state is a {type(state).__name__}, not a dict")
        for name in dataclass_field_names(ImplicitDefinitionProblem):
            if name in state:
                object.__setattr__(self, name, state[name])

    def memo(self, key: str, build: Callable[["ImplicitDefinitionProblem"], T]) -> T:
        """``build(self)``, computed on the first call per ``key`` and kept."""
        value = self.__dict__.get(key)
        if value is None:
            value = build(self)
            object.__setattr__(self, key, value)
        return value

    def _determinacy(self) -> Tuple[Tuple[Formula, Var, Tuple[Var, ...]], Formula, Sequent]:
        return self.memo("_determinacy_memo", _build_determinacy)

    # ------------------------------------------------------------- renaming
    def primed(self) -> Tuple[Formula, Var, Tuple[Var, ...]]:
        """A copy ``φ(ī, ā', o')`` sharing the inputs but with fresh output/auxiliaries."""
        return self._determinacy()[0]

    # ------------------------------------------------------------ sequents
    def determinacy_goal(self) -> Sequent:
        """The one-sided sequent ``⊢ ¬φ, ¬φ', o ≡ o'`` witnessing implicit definability."""
        return self._determinacy()[2]

    def determinacy_hypotheses(self) -> Tuple[Formula, Formula, Formula]:
        """``(φ, φ', o ≡ o')`` — the two hypotheses and the conclusion."""
        (primed_phi, _, _), goal, _ = self._determinacy()
        return self.phi, primed_phi, goal

    # ------------------------------------------------------------ semantics
    def holds_on(self, assignment: Mapping[Var, Value]) -> bool:
        """Does the specification hold under the assignment?"""
        return eval_formula(self.phi, assignment)

    def check_implicitly_defines(
        self, assignments: Sequence[Mapping[Var, Value]], batched: bool = True
    ) -> bool:
        """Semantic sanity check on a finite sample of instances.

        Returns False if two satisfying assignments agree on the inputs but
        disagree on the output — a counterexample to implicit definability.
        By default the family is filtered through the compiled formula
        program (:func:`repro.logic.semantics.satisfying_assignments`) and
        compared on interned ids: grouping by the input-id tuple makes the
        check linear in the number of satisfying assignments.  The batched
        path requires complete, well-typed assignments; pass
        ``batched=False`` for the per-row oracle, which evaluates lazily.
        """
        assignments = list(assignments)
        if not batched:
            satisfying = [a for a in assignments if self.holds_on(a)]
            for first in satisfying:
                for second in satisfying:
                    if all(first[i] == second[i] for i in self.inputs):
                        if first[self.output] != second[self.output]:
                            return False
            return True

        from repro.logic.semantics import satisfying_assignments
        from repro.nr.columns import shared_interner

        interner = shared_interner()
        satisfying = satisfying_assignments(self.phi, assignments, interner)
        intern = interner.intern
        outputs_by_inputs: Dict[Tuple[int, ...], int] = {}
        for assignment in satisfying:
            key = tuple(intern(assignment[i]) for i in self.inputs)
            output_id = intern(assignment[self.output])
            previous = outputs_by_inputs.setdefault(key, output_id)
            if previous != output_id:
                return False
        return True

    def nrc_input_vars(self) -> Tuple[NVar, ...]:
        """The NRC variables corresponding to the input variables."""
        return tuple(NVar(v.name, v.typ) for v in self.inputs)


def _build_determinacy(
    problem: ImplicitDefinitionProblem,
) -> Tuple[Tuple[Formula, Var, Tuple[Var, ...]], Formula, Sequent]:
    mapping: Dict[Var, Var] = {}
    primed_output = Var(problem.output.name + "_p", problem.output.typ)
    mapping[problem.output] = primed_output
    primed_aux: List[Var] = []
    for aux in problem.auxiliaries:
        fresh = Var(aux.name + "_p", aux.typ)
        mapping[aux] = fresh
        primed_aux.append(fresh)
    primed_phi = substitute_many(problem.phi, mapping)
    goal = equivalent(problem.output, primed_output)
    sequent = Sequent.of((), [negate(problem.phi), negate(primed_phi), goal])
    return (primed_phi, primed_output, tuple(primed_aux)), goal, sequent


@dataclass(frozen=True)
class ViewRewritingProblem:
    """Determinacy of an NRC query by NRC views over shared base data (Corollary 3).

    ``views`` maps view names to NRC expressions over the base variables;
    ``query`` is an NRC expression over the same base variables;
    ``constraints`` are optional Δ0 integrity constraints on the base data.
    """

    name: str
    base: Tuple[Var, ...]
    views: Tuple[Tuple[str, NRCExpr], ...]
    query: NRCExpr
    query_name: str = "Q"
    constraints: Tuple[Formula, ...] = ()

    def view_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.views)
