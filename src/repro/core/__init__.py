"""Unified core IR: the node protocol, traversal engine, caches and rewriting.

Every AST in the system (Δ0 terms, Δ0 formulas, NRC expressions) implements
the :class:`~repro.core.node.Node` protocol; this package supplies the one
traversal/caching/rewriting substrate they all share.  See ARCHITECTURE.md.
"""

from repro.core.node import (
    Node,
    cached_fold,
    canonical_nodes,
    fold,
    free_vars,
    map_children,
    node_size,
    transform_bottom_up,
    walk,
)
from repro.core.subst import fresh_name, free_var_names, replace_subtree, substitute
from repro.core.engine import RewriteEngine, RewriteStats

__all__ = [
    "Node",
    "walk",
    "fold",
    "cached_fold",
    "map_children",
    "transform_bottom_up",
    "node_size",
    "free_vars",
    "canonical_nodes",
    "substitute",
    "replace_subtree",
    "fresh_name",
    "free_var_names",
    "RewriteEngine",
    "RewriteStats",
]
