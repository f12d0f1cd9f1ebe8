"""Independent validation of focused proof trees.

``check_proof`` validates every node of a proof tree against the rules of
Figure 3 (plus the structural ``weaken`` rule) using the rule constructors of
:mod:`repro.proofs.focused`; the constructors recompute the expected premise
sequents from the conclusion and the recorded rule parameters, so a proof
cannot pass the checker unless every inference is a genuine rule instance.

Each node it validates gets the process-local validation mark of
:mod:`repro.proofs.prooftree`, which the rule constructors also set, and the
walk stops at a marked node: its subtree was validated in this process,
either when a constructor built it or by an earlier check.  A tree from
outside the process (an imported or unpickled witness) or one assembled with
the raw ``ProofNode(...)`` constructor carries no mark and is checked in
full.  The depth bound still holds across a marked subtree: the subtree's
recorded height is added to the depth at which the walk meets it.

The checker also takes trees from outside the program (imported witnesses),
so it checks each node's shape before reading it and walks the tree with an
explicit stack: a malformed or over-deep tree fails with :class:`ProofError`,
never with a raw ``AttributeError`` or ``RecursionError``.
"""

from __future__ import annotations

from repro.errors import ProofError, RuleApplicationError
from repro.proofs import focused
from repro.proofs.prooftree import ProofNode, mark_validated, validated_height
from repro.proofs.sequents import Sequent

#: The deepest proof tree the checker accepts.  Proofs found by search are
#: at most 34 deep and the hand-written witnesses 59; the code that consumes
#: a checked proof (``proof_size``, interpolation, pickling into the witness
#: store) recurses once or more per level, and past ~250 levels pickling
#: alone exceeds the default recursion limit.
MAX_PROOF_DEPTH = 200


def check_proof(node: ProofNode) -> None:
    """Validate ``node`` and every node below it; raise :class:`ProofError` on any violation.

    Post-order, premises left to right before their conclusion, as a
    recursive check would visit them; a subtree already validated in this
    process is not entered (see the module docstring).
    """
    stack = [(node, 1, False)]
    while stack:
        current, depth, premises_checked = stack.pop()
        if premises_checked:
            _check_rule(current)
            mark_validated(current)
            continue
        _check_shape(current, depth)
        height = validated_height(current)
        if height:
            _check_depth(depth + height - 1)
            continue
        stack.append((current, depth, True))
        stack.extend((premise, depth + 1, False) for premise in reversed(current.premises))


def _check_shape(node: object, depth: int) -> None:
    if not isinstance(node, ProofNode):
        raise ProofError(f"a proof node is a {type(node).__name__}, not a ProofNode")
    # getattr: an unpickled node need not carry every field.
    rule, sequent, premises, meta = (getattr(node, name, None) for name in ("rule", "sequent", "premises", "meta"))
    if not (
        isinstance(rule, str)
        and isinstance(sequent, Sequent)
        and isinstance(premises, tuple)
        and isinstance(meta, dict)
    ):
        raise ProofError(
            f"malformed proof node: rule {type(rule).__name__}, sequent {type(sequent).__name__}, "
            f"premises {type(premises).__name__}, meta {type(meta).__name__}"
        )
    _check_depth(depth)


def _check_depth(depth: int) -> None:
    if depth > MAX_PROOF_DEPTH:
        raise ProofError(f"proof tree is deeper than {MAX_PROOF_DEPTH} levels")


def _check_rule(node: ProofNode) -> None:
    try:
        _check_node(node)
    except RuleApplicationError as exc:
        raise ProofError(f"invalid application of rule {node.rule!r}: {exc}") from exc
    except KeyError as exc:
        raise ProofError(f"rule {node.rule!r} is missing metadata entry {exc}") from exc


def is_valid_proof(node: ProofNode) -> bool:
    """Boolean convenience wrapper around :func:`check_proof`."""
    try:
        check_proof(node)
    except ProofError:
        return False
    return True


def _check_node(node: ProofNode) -> None:
    rule = node.rule
    meta = node.meta
    if rule == "eq":
        _expect_premises(node, 0)
        focused.make_eq_axiom(node.sequent, meta["principal"])
    elif rule == "top":
        _expect_premises(node, 0)
        focused.make_top_axiom(node.sequent)
    elif rule == "neq":
        _expect_premises(node, 1)
        focused.make_neq(node.sequent, meta["neq"], meta["source"], meta["target"], node.premises[0])
    elif rule == "and":
        _expect_premises(node, 2)
        focused.make_and(node.sequent, meta["principal"], node.premises[0], node.premises[1])
    elif rule == "or":
        _expect_premises(node, 1)
        focused.make_or(node.sequent, meta["principal"], node.premises[0])
    elif rule == "forall":
        _expect_premises(node, 1)
        focused.make_forall(node.sequent, meta["principal"], meta["fresh"], node.premises[0])
    elif rule == "exists":
        _expect_premises(node, 1)
        focused.make_exists(
            node.sequent,
            meta["principal"],
            meta["witnesses"],
            node.premises[0],
            require_maximal=not meta.get("partial", False),
        )
    elif rule == "prod_eta":
        _expect_premises(node, 1)
        fresh1, fresh2 = meta["fresh"]
        focused.make_prod_eta(node.sequent, meta["var"], fresh1, fresh2, node.premises[0])
    elif rule == "prod_beta":
        _expect_premises(node, 1)
        focused.make_prod_beta(node.sequent, meta["pair"], meta["index"], node.premises[0])
    elif rule == "weaken":
        _expect_premises(node, 1)
        focused.make_weaken(node.sequent, node.premises[0])
    else:
        raise ProofError(f"unknown rule name {rule!r}")


def _expect_premises(node: ProofNode, count: int) -> None:
    if len(node.premises) != count:
        raise ProofError(f"rule {node.rule!r} expects {count} premises, got {len(node.premises)}")
