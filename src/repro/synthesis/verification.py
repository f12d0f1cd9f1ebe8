"""Semantic validation of synthesized definitions.

The synthesizer's guarantees are proof-theoretic; these helpers double-check
them semantically on concrete instances (used pervasively by the test-suite
and the benchmark harness): for every satisfying assignment of the
specification, the synthesized expression evaluated on the inputs must equal
the output value.

:func:`check_explicit_definition` filters a family in two steps.  The
specification selects the satisfying assignments
(:func:`repro.logic.semantics.satisfying_assignments`); the candidate
expression then runs once per satisfying assignment through
:func:`repro.nrc.eval.eval_nrc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.logic.semantics import satisfying_assignments
from repro.logic.terms import Var
from repro.nr.values import Value
from repro.nrc.eval import eval_nrc
from repro.nrc.expr import NRCExpr, NVar


@dataclass
class VerificationReport:
    """Outcome of checking a definition against a batch of instances."""

    checked: int
    satisfying: int
    mismatches: List[Mapping[Var, Value]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _nvar_mapping(variables: Sequence[Var]) -> Dict[Var, NVar]:
    """The ``Var -> NVar`` bridge, built once per family (not per assignment)."""
    return {v: NVar(v.name, v.typ) for v in variables}


def check_explicit_definition(
    problem,
    expression: NRCExpr,
    assignments: Sequence[Mapping[Var, Value]],
) -> VerificationReport:
    """Check ``expression`` explicitly defines the problem's output on the given assignments."""
    assignments = list(assignments)
    satisfying = satisfying_assignments(problem.phi, assignments)
    input_nvars = _nvar_mapping(problem.inputs)
    mismatches: List[Mapping[Var, Value]] = []
    for assignment in satisfying:
        env = {nv: assignment[v] for v, nv in input_nvars.items()}
        if eval_nrc(expression, env) != assignment[problem.output]:
            mismatches.append(assignment)
    return VerificationReport(len(assignments), len(satisfying), mismatches)


def check_view_rewriting(
    base_vars: Sequence[Var],
    views: Sequence[Tuple[str, NRCExpr]],
    query: NRCExpr,
    rewriting: NRCExpr,
    base_instances: Sequence[Mapping[Var, Value]],
) -> VerificationReport:
    """Check a rewriting: evaluating it on the view outputs reproduces the query output."""
    from repro.nrc.typing import infer_type

    base_instances = list(base_instances)
    base_nvars = _nvar_mapping(base_vars)
    view_nvars = [(NVar(name, infer_type(view_expr)), view_expr) for name, view_expr in views]
    mismatches: List[Mapping[Var, Value]] = []
    for instance in base_instances:
        base_env = {nv: instance[v] for v, nv in base_nvars.items()}
        view_env = {nv: eval_nrc(view_expr, base_env) for nv, view_expr in view_nvars}
        if eval_nrc(rewriting, view_env) != eval_nrc(query, base_env):
            mismatches.append(instance)
    return VerificationReport(len(base_instances), len(base_instances), mismatches)
