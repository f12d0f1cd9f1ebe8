"""Implicit-to-explicit synthesis — Theorem 2 (and Appendix G for non-set types).

``synthesize`` takes an :class:`ImplicitDefinitionProblem` together with a
focused proof of its determinacy sequent

    φ(ī, ā, o) ∧ φ(ī, ā′, o′)  ⊢  o ≡ o′

(or finds one with the bundled proof search) and produces an NRC expression
``E(ī)`` that explicitly defines ``o``: for every nested relational model of
``φ``, ``E(ī) = o``.

The algorithm follows the paper:

* set-typed outputs — invert the conclusion (Lemmas 13/14) to obtain a proof
  of ``r ∈ o; φ, φ′ ⊢ ∃r′∈o′. r ≡ r′``; apply Theorem 10 to obtain a superset
  expression; interpolate (Theorem 4) to obtain the membership test ``κ(ī, r)``
  and return ``{x ∈ E(ī) | κ(ī, x)}``;
* Ur-typed outputs — interpolate directly and select the unique atom with
  ``get`` (Appendix G);
* product outputs — synthesize each component and pair the results
  (Appendix G; the component witnesses are re-derived with the proof-search
  substrate, see DESIGN.md §5);
* ``Unit`` outputs — the constant ``()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.node import dataclass_setstate, dataclass_state
from repro.errors import ProofSearchError, SynthesisError
from repro.interpolation.delta0 import interpolate
from repro.interpolation.partition import Partition
from repro.logic.formulas import And, Exists, Forall, Formula, Member
from repro.logic.free_vars import beta_normalize_formula, fresh_var, substitute
from repro.logic.macros import negate
from repro.logic.terms import PairTerm, Var
from repro.nr.types import ProdType, SetType, UnitType, UrType
from repro.nrc.expr import NGet, NPair, NRCExpr, NUnit, NVar
from repro.nrc.macros import atoms_expr, comprehension
from repro.nrc.simplify import simplify
from repro.proofs.admissible import and_inversion, forall_eigenvariable, forall_inversion
from repro.proofs.checker import check_proof
from repro.proofs.prooftree import ProofNode, proof_size
from repro.proofs.search import ProofSearch
from repro.specs.problems import ImplicitDefinitionProblem


@dataclass
class SynthesisResult:
    """The synthesized explicit definition plus provenance information."""

    problem: ImplicitDefinitionProblem
    expression: NRCExpr
    proof: ProofNode
    interpolant: Optional[Formula] = None
    raw_expression: Optional[NRCExpr] = None

    #: Pickles (disk tier, worker pipes) carry the five fields only, never
    #: the ``proof_size`` memo below, and unpickling restores no more.
    __getstate__ = dataclass_state
    __setstate__ = dataclass_setstate

    @property
    def proof_size(self) -> int:
        """Node count of ``proof``: one tree walk per result and proof object."""
        memo = self.__dict__.get("_proof_size")
        if memo is None or memo[0] is not self.proof:
            memo = (self.proof, proof_size(self.proof))
            self.__dict__["_proof_size"] = memo
        return memo[1]


def find_determinacy_proof(
    problem: ImplicitDefinitionProblem, search: Optional[ProofSearch] = None
) -> ProofNode:
    """Search for a focused proof of the problem's determinacy sequent.

    Raises :class:`SynthesisError` when the bundled search exhausts its budget
    — the paper leaves automated witness discovery open (Section 7), so hard
    instances are expected to need hand-written proofs or a larger budget.
    Exposed separately from :func:`synthesize` so orchestrators (the service
    pipeline) can time and report proof search as its own stage.
    """
    search = search or ProofSearch()
    try:
        return search.prove(problem.determinacy_goal())
    except ProofSearchError as exc:
        raise SynthesisError(
            f"no determinacy witness found for {problem.name!r}; "
            "supply a proof explicitly or increase the search budget"
        ) from exc


def synthesize(
    problem: ImplicitDefinitionProblem,
    proof: Optional[ProofNode] = None,
    search: Optional[ProofSearch] = None,
    simplify_output: bool = True,
    collect: Optional[List["SynthesisResult"]] = None,
) -> SynthesisResult:
    """Compute an explicit NRC definition of the problem's output variable.

    ``proof`` must be a focused proof of ``problem.determinacy_goal()``; when
    omitted, the bundled proof search is used to find one.  The proof is
    always checked; a tree the search (or any rule constructor) built in this
    process carries the checker's validation mark, so only a proof from
    outside the process costs a full check.  ``collect``
    accumulates every :class:`SynthesisResult` produced along the way —
    including the component results of product outputs, whose determinacy
    proofs are otherwise internal to the Appendix G recursion.  The witness
    tier uses this to persist component proofs alongside the top-level one.
    """
    if proof is None:
        proof = find_determinacy_proof(problem, search)
    check_proof(proof)
    if proof.sequent != problem.determinacy_goal():
        raise SynthesisError("the supplied proof does not prove the determinacy sequent")

    expression, interpolant = _synthesize_typed(problem, proof, search, collect)
    raw = expression
    if simplify_output:
        expression = simplify(expression)
    result = SynthesisResult(problem, expression, proof, interpolant, raw)
    if collect is not None:
        collect.append(result)
    return result


# --------------------------------------------------------------------------
def _synthesize_typed(
    problem: ImplicitDefinitionProblem,
    proof: ProofNode,
    search: Optional[ProofSearch],
    collect: Optional[List[SynthesisResult]] = None,
) -> Tuple[NRCExpr, Optional[Formula]]:
    output = problem.output
    typ = output.typ
    if isinstance(typ, UnitType):
        return NUnit(), None
    if isinstance(typ, UrType):
        return _synthesize_ur(problem, proof)
    if isinstance(typ, ProdType):
        return _synthesize_product(problem, search, collect), None
    if isinstance(typ, SetType):
        return _synthesize_set(problem, proof)
    raise SynthesisError(f"unsupported output type {typ}")


def _determinacy_parts(problem: ImplicitDefinitionProblem) -> Tuple[Formula, Formula, Formula, Var]:
    phi, primed_phi, goal = problem.determinacy_hypotheses()
    primed_output = Var(problem.output.name + "_p", problem.output.typ)
    return phi, primed_phi, goal, primed_output


# ------------------------------------------------------------------ Ur case
def _synthesize_ur(problem: ImplicitDefinitionProblem, proof: ProofNode) -> Tuple[NRCExpr, Formula]:
    phi, primed_phi, goal, _ = _determinacy_parts(problem)
    partition = Partition.of(proof.sequent, left_delta=[negate(phi)], right_delta=[negate(primed_phi), goal])
    theta = interpolate(proof, partition)
    candidate = fresh_var("cand", problem.output.typ, [problem.output, *problem.inputs, *problem.auxiliaries])
    predicate = substitute(theta, problem.output, candidate)
    domain = atoms_expr([NVar(v.name, v.typ) for v in problem.inputs])
    selected = comprehension(domain, NVar(candidate.name, candidate.typ), predicate)
    return NGet(selected), theta


# ------------------------------------------------------------------ set case
def _synthesize_set(problem: ImplicitDefinitionProblem, proof: ProofNode) -> Tuple[NRCExpr, Formula]:
    from repro.synthesis.collect_answers import collect_answers

    phi, primed_phi, goal, primed_output = _determinacy_parts(problem)
    if not isinstance(goal, And):
        raise SynthesisError("the set-typed determinacy goal must be a conjunction of inclusions")
    subset = goal.left  # o ⊆ o'
    if not isinstance(subset, Forall):
        raise SynthesisError("unexpected shape of the inclusion o ⊆ o'")

    # Lemma 13 (∧ inversion): a proof of  ⊢ ¬φ, ¬φ', o ⊆ o'.
    subset_proof = and_inversion(proof, goal, 1)
    # Lemma 14 (∀ inversion): a proof of  r ∈ o ; φ, φ' ⊢ r ∈̂ o'.  It is
    # inverted at the proof's own eigenvariable when that one is free for the
    # whole inversion, so the ∀ node's premise is reused as it stands; the
    # element is named ``r_elem`` in the query either way.
    avoid = {problem.output, primed_output, *problem.inputs, *problem.auxiliaries}
    member = fresh_var("r_elem", subset.var.typ, avoid)
    element = forall_eigenvariable(subset_proof, subset)
    if element is None or element in avoid:
        element = member
    member_proof = forall_inversion(subset_proof, subset, element)
    target = substitute(subset.body, subset.var, element)
    if not isinstance(target, Exists):
        raise SynthesisError(f"expected an existential membership target, got {target}")

    # Theorem 10: a superset expression E(ī) with  r ∈ E(ī).
    superset = collect_answers(
        member_proof,
        target,
        element,
        problem.inputs,
        left_formulas=(negate(phi),),
        right_formulas=(negate(primed_phi),),
    )

    # Theorem 4: the membership test κ(ī, r).
    partition = Partition.of(
        member_proof.sequent,
        left_delta=[negate(phi)],
        right_delta=[negate(primed_phi), target],
        left_theta=[Member(element, problem.output)],
    )
    kappa = substitute(interpolate(member_proof, partition), element, member)

    candidate = NVar(member.name, member.typ)
    filtered = comprehension(superset, candidate, kappa)
    return filtered, kappa


# -------------------------------------------------------------- product case
def product_subproblems(
    problem: ImplicitDefinitionProblem,
) -> Tuple[ImplicitDefinitionProblem, ImplicitDefinitionProblem]:
    """The two component sub-problems of a product-typed output (Appendix G).

    The decomposition is deterministic in the problem — component variables
    are named ``<output>_1``/``<output>_2`` and φ is β-normalized after the
    pair substitution — so a component goal, and the address of its stored
    witness, is the same on every run of the same problem.
    """
    output = problem.output
    typ: ProdType = output.typ  # type: ignore[assignment]
    first = Var(output.name + "_1", typ.left)
    second = Var(output.name + "_2", typ.right)
    substituted = beta_normalize_formula(substitute(problem.phi, output, PairTerm(first, second)))
    subs = []
    for component, other in ((first, second), (second, first)):
        subs.append(
            ImplicitDefinitionProblem(
                name=f"{problem.name}_{component.name}",
                phi=substituted,
                inputs=problem.inputs,
                output=component,
                auxiliaries=tuple(problem.auxiliaries) + (other,),
            )
        )
    return subs[0], subs[1]


def _synthesize_product(
    problem: ImplicitDefinitionProblem,
    search: Optional[ProofSearch],
    collect: Optional[List[SynthesisResult]] = None,
) -> NRCExpr:
    """Appendix G, product outputs: synthesize each component separately.

    The paper derives the component witnesses from the given proof via
    substitutivity (Lemma 16), ∧-inversion and the ×β rule; we re-derive them
    with the proof-search substrate instead (see DESIGN.md §5) and synthesize
    each component recursively.
    """
    components = []
    for sub_problem in product_subproblems(problem):
        result = synthesize(sub_problem, search=search, collect=collect)
        components.append(result.expression)
    return NPair(components[0], components[1])
