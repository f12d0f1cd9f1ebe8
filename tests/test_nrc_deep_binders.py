"""Binder nesting past the generated-code limit agrees with the oracle.

Generated code indents one ``for`` block per binder body, and CPython caps
static block nesting, so a binding union whose body sits more than
``_MAX_GENERATED_BINDER_DEPTH`` binders deep is compiled as its own function
and called with the enclosing loop variables added to the environment.
These towers cross that split once (17), several times (40, 60) or not at
all (16), and compare :func:`eval_nrc` with the frozen recursive
``reference_eval_nrc`` of ``tests/reference_core.py``.
"""

import pytest
from reference_core import reference_eval_nrc

from repro.errors import EvaluationError
from repro.nr.types import UR, set_of
from repro.nr.values import PairValue, ur, vset
from repro.nrc.eval import _MAX_GENERATED_BINDER_DEPTH, _generate_source, eval_nrc
from repro.nrc.expr import NBigUnion, NPair, NProj, NSingleton, NUnion, NVar

S = NVar("S", set_of(UR))
R = NVar("R", set_of(UR))
E = NVar("E", set_of(UR))
U = NVar("u", UR)
MISSING = NVar("missing", UR)

ENV = {S: vset([ur(1), ur(2), ur(3)]), R: vset([ur(8), ur(9)]), E: vset([]), U: ur(7)}

#: Levels whose source also ranges over ``R`` (two more elements each).
WIDE = (10, 20, 30, 50)

DEPTHS = (16, 17, 40, 60)


def _binders(depth, shadowed):
    """One binder per level; shadowed towers reuse two names throughout."""
    if shadowed:
        return [NVar("xy"[i % 2], UR) for i in range(depth)]
    return [NVar(f"x{i}", UR) for i in range(depth)]


def _tower(depth, shadowed, body, innermost_source=None):
    """``U{ ... U{ body | v_d ∈ src_d } ... | v_1 ∈ S }``.

    Level ``i > 0`` ranges over ``{v_(i-1)}`` — a loop variable of the level
    above, read across every split — joined with ``R`` at the :data:`WIDE`
    levels.  ``body`` is called with the binders, outermost first.
    """
    binders = _binders(depth, shadowed)
    expr = body(binders)
    for i in reversed(range(depth)):
        if i == 0:
            source = S
        elif i == depth - 1 and innermost_source is not None:
            source = innermost_source
        elif i in WIDE:
            source = NUnion(NSingleton(binders[i - 1]), R)
        else:
            source = NSingleton(binders[i - 1])
        expr = NBigUnion(expr, binders[i], source)
    return expr


def _pairs_of_first_and_last(binders):
    # The outermost binder and the free ``u`` are read below the split.
    return NSingleton(NPair(NPair(binders[0], binders[-1]), U))


@pytest.mark.parametrize("shadowed", [False, True], ids=["distinct", "shadowed"])
@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_tower_agrees_with_oracle(depth, shadowed):
    expr = _tower(depth, shadowed, _pairs_of_first_and_last)
    expected = reference_eval_nrc(expr, ENV)
    assert eval_nrc(expr, ENV) == expected
    assert len(expected.elements) > 3
    assert all(isinstance(element, PairValue) for element in expected.elements)


@pytest.mark.parametrize("depth", DEPTHS)
def test_shadowing_binder_wins_below_the_split(depth):
    # Every level rebinds ``x``; the innermost binding must win, so the body
    # sees the innermost value, never an outer one re-bound by the split.
    expr = _tower(depth, True, lambda binders: NSingleton(NVar("x", UR)))
    assert eval_nrc(expr, ENV) == reference_eval_nrc(expr, ENV)


@pytest.mark.parametrize("depth", DEPTHS)
def test_error_below_the_split_matches_the_oracle(depth):
    expr = _tower(depth, False, lambda binders: NSingleton(NProj(1, U)))
    with pytest.raises(EvaluationError, match="projection of non-pair"):
        reference_eval_nrc(expr, ENV)
    with pytest.raises(EvaluationError, match="projection of non-pair"):
        eval_nrc(expr, ENV)


@pytest.mark.parametrize("depth", [17, 40, 60])
def test_unbound_body_over_empty_source_stays_lazy(depth):
    expr = _tower(depth, False, lambda binders: NSingleton(MISSING), innermost_source=E)
    assert eval_nrc(expr, ENV) == reference_eval_nrc(expr, ENV) == vset([])
    # Over a non-empty source the same body does raise.
    eager = _tower(depth, False, lambda binders: NSingleton(MISSING))
    with pytest.raises(EvaluationError, match="unbound NRC variable"):
        eval_nrc(eager, ENV)


def test_split_starts_past_the_generated_limit():
    limit = _MAX_GENERATED_BINDER_DEPTH
    at_limit, _ = _generate_source(_tower(limit, False, _pairs_of_first_and_last))
    past_limit, _ = _generate_source(_tower(limit + 1, False, _pairs_of_first_and_last))
    assert "**env" not in at_limit
    assert past_limit.count("**env") == 1
