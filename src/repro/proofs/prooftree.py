"""Proof trees.

A :class:`ProofNode` records the rule name, the conclusion sequent, the
premises (child proof nodes, ordered) and a ``meta`` mapping with the
rule-specific data (principal formula, instantiation witnesses, fresh
variables, ...).  The metadata lets proof transformations and the synthesis
inductions dispatch on the rule without re-deriving it; the independent
checker (:mod:`repro.proofs.checker`) validates every node against the
calculus regardless of what the metadata claims.

A node also carries a process-local *validation mark*: the height of its
subtree once every node of that subtree has been validated in this process,
``0`` before.  The rule constructors of :mod:`repro.proofs.focused` set it
on a node they build over marked premises, and the checker sets it on each
node it validates, so a tree built or checked here is not checked again.
The mark is not a dataclass field: equality and hashing ignore it, and
pickling, ``copy`` and ``dataclasses.replace`` drop it (``__getstate__``
and ``__setstate__`` carry the four fields only).  A tree from outside the
process, or one assembled with the raw ``ProofNode(...)`` constructor,
therefore starts unmarked and gets a full check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Tuple

from repro.core.node import dataclass_setstate, dataclass_state
from repro.proofs.sequents import Sequent

#: Rule names of the focused calculus (Figure 3) plus the explicit structural
#: ``weaken`` rule (the reification of admissible Lemma 12 used by proof search).
FOCUSED_RULES = (
    "eq",        # =   axiom  ⊢ t = t, Δ
    "top",       # ⊤   axiom  ⊢ ⊤, Δ
    "neq",       # ≠   congruence on atomic formulas
    "and",       # ∧
    "or",        # ∨
    "forall",    # ∀
    "exists",    # ∃   (maximal specialization w.r.t. Θ)
    "prod_eta",  # ×η
    "prod_beta", # ×β
    "weaken",    # structural weakening (admissible, Lemma 12)
)


@dataclass(frozen=True)
class ProofNode:
    """One node of a proof tree: conclusion, rule, premises, metadata."""

    rule: str
    sequent: Sequent
    premises: Tuple["ProofNode", ...] = ()
    meta: Mapping[str, Any] = field(default_factory=dict)

    #: The validation mark (see the module docstring); class default: unmarked.
    _valid_height = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "meta", dict(self.meta))

    # The declared fields and nothing else: a payload cannot carry (or
    # forge) the validation mark.
    __getstate__ = dataclass_state
    __setstate__ = dataclass_setstate

    def premise(self, index: int = 0) -> "ProofNode":
        return self.premises[index]

    def __str__(self) -> str:
        return render_proof(self)


def validated_height(node: ProofNode) -> int:
    """The height of ``node``'s subtree if it was validated in this process, else 0."""
    return node._valid_height


def mark_validated(node: ProofNode) -> ProofNode:
    """Record that ``node``'s own rule application was validated in this process.

    Call it only after that check has passed.  The mark is set only when
    every premise already carries one, so it always means "this whole
    subtree is valid".  Returns ``node``.
    """
    height = 0
    for premise in node.premises:
        premise_height = premise._valid_height
        if not premise_height:
            return node
        if premise_height > height:
            height = premise_height
    object.__setattr__(node, "_valid_height", height + 1)
    return node


def proof_size(node: ProofNode) -> int:
    """Number of nodes in the proof tree."""
    return 1 + sum(proof_size(premise) for premise in node.premises)


def proof_depth(node: ProofNode) -> int:
    """Height of the proof tree."""
    if not node.premises:
        return 1
    return 1 + max(proof_depth(premise) for premise in node.premises)


def rules_used(node: ProofNode) -> Dict[str, int]:
    """Histogram of rule names used in the proof."""
    counts: Dict[str, int] = {}

    def visit(current: ProofNode) -> None:
        counts[current.rule] = counts.get(current.rule, 0) + 1
        for premise in current.premises:
            visit(premise)

    visit(node)
    return counts


def iter_nodes(node: ProofNode) -> Iterator[ProofNode]:
    """Pre-order traversal of all proof nodes."""
    yield node
    for premise in node.premises:
        yield from iter_nodes(premise)


def render_proof(node: ProofNode, indent: int = 0) -> str:
    """A readable indented rendering of the proof tree."""
    pad = "  " * indent
    lines = [f"{pad}[{node.rule}] {node.sequent}"]
    for premise in node.premises:
        lines.append(render_proof(premise, indent + 1))
    return "\n".join(lines)
