"""Sequents of the focused Δ0 calculus (Figure 3).

A sequent ``Θ ⊢ Δ`` consists of

* an ∈-context ``Θ``: a finite set of primitive membership atoms
  (:class:`repro.logic.formulas.Member`), the only extended-Δ0 formulas in the
  system, and
* a finite set ``Δ`` of Δ0 formulas (one-sided: everything on the right).

The two-sided sequents ``Θ; Γ ⊢ Δ`` of the paper are macros for
``Θ ⊢ ¬Γ, Δ`` (see :func:`negate_all` / :func:`two_sided`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from repro.core.node import dataclass_setstate, dataclass_state
from repro.errors import FormulaError
from repro.logic.formulas import Formula, Member, is_delta0, is_existential_leading
from repro.logic.free_vars import free_vars
from repro.logic.macros import negate
from repro.logic.terms import Var


@dataclass(frozen=True)
class Sequent:
    """A one-sided sequent ``Θ ⊢ Δ`` of the focused calculus."""

    theta: FrozenSet[Member]
    delta: FrozenSet[Formula]

    # Sequents cache their hash and free variables in-instance; keep those
    # (process-local) memos out of pickles both ways — see
    # core.node.dataclass_state and dataclass_setstate.
    __getstate__ = dataclass_state
    __setstate__ = dataclass_setstate

    def __hash__(self) -> int:
        # Sequents key the proof search's failure memo; hash once per sequent.
        h = self.__dict__.get("_chash")
        if h is None:
            h = hash((self.theta, self.delta))
            object.__setattr__(self, "_chash", h)
        return h

    @staticmethod
    def of(theta: Iterable[Member] = (), delta: Iterable[Formula] = ()) -> "Sequent":
        theta_set = frozenset(theta)
        delta_set = frozenset(delta)
        for atom in theta_set:
            if not isinstance(atom, Member):
                raise FormulaError(f"∈-context entries must be membership atoms, got {atom}")
        for formula in delta_set:
            if not is_delta0(formula):
                raise FormulaError(f"right-hand formulas must be core Δ0, got {formula}")
        return Sequent(theta_set, delta_set)

    def with_theta(self, *atoms: Member) -> "Sequent":
        return Sequent(self.theta | frozenset(atoms), self.delta)

    def with_delta(self, *formulas: Formula) -> "Sequent":
        return Sequent(self.theta, self.delta | frozenset(formulas))

    def without_delta(self, *formulas: Formula) -> "Sequent":
        return Sequent(self.theta, self.delta - frozenset(formulas))

    def __str__(self) -> str:
        theta = ", ".join(sorted(str(a) for a in self.theta))
        delta = ", ".join(sorted(str(f) for f in self.delta))
        return f"{theta} |- {delta}"


def sequent_free_vars(sequent: Sequent) -> FrozenSet[Var]:
    """All free variables of a sequent (cached on the frozen sequent)."""
    cached = sequent.__dict__.get("_fv")
    if cached is not None:
        return cached
    result: FrozenSet[Var] = frozenset()
    for atom in sequent.theta:
        result |= free_vars(atom)
    for formula in sequent.delta:
        result |= free_vars(formula)
    object.__setattr__(sequent, "_fv", result)
    return result


def all_el(formulas: Iterable[Formula]) -> bool:
    """True iff every formula is existential-leading (EL)."""
    return all(is_existential_leading(formula) for formula in formulas)


def negate_all(formulas: Iterable[Formula]) -> Tuple[Formula, ...]:
    """Negate every formula (used to move a two-sided Γ to the right)."""
    return tuple(negate(formula) for formula in formulas)


def two_sided(theta: Iterable[Member], gamma: Iterable[Formula], delta: Iterable[Formula]) -> Sequent:
    """The one-sided reading ``Θ ⊢ ¬Γ, Δ`` of a two-sided sequent ``Θ; Γ ⊢ Δ``."""
    return Sequent.of(theta, tuple(negate_all(gamma)) + tuple(delta))
