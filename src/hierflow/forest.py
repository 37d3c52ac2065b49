"""Rooted forests with edge values, kept as parent pointers.

Each node holds its parent (`rep_par`, -1 at a root) and the value of the
edge to it (`val`, read only while the node has a parent).  link, cut and
edge_value touch one node; find_root, find_min and add_path walk the path
from a node to its root in O(depth).  Values are exact ints of any
size: no sentinel enters the arithmetic.  Only push-relabel's "capacitated"
reference mode builds a forest, and it walks only the tree path of an
augmenting path it has just walked, so no walk is longer than the path the
unit mode would walk.
"""
from __future__ import annotations

from typing import List, Tuple

from .errors import NoParentError, NotARootError, SameTreeError


class DynForest:
    """Forest of rooted trees over nodes 0..n-1."""

    def __init__(self, n: int):
        self.rep_par: List[int] = [-1] * n  # parent, -1 at a root
        self.val: List[int] = [0] * n  # value of the parent edge

    def link(self, u: int, v: int, value: int) -> None:
        """Attach root u below v with edge value `value`."""
        if self.rep_par[u] != -1:
            raise NotARootError(f"node {u} already has a parent")
        if self.find_root(v) == u:
            raise SameTreeError(f"nodes {u} and {v} share a tree")
        self.link_unchecked(u, v, value)

    def link_unchecked(self, u: int, v: int, value: int) -> None:
        """link() without precondition checks; caller guarantees them."""
        self.rep_par[u] = v
        self.val[u] = value

    def cut(self, u: int) -> None:
        """Detach u (and its subtree) from its parent."""
        if self.rep_par[u] == -1:
            raise NoParentError(f"node {u} is a root")
        self.rep_par[u] = -1

    def find_root(self, u: int) -> int:
        par = self.rep_par
        while par[u] != -1:
            u = par[u]
        return u

    def find_min(self, u: int) -> Tuple[Tuple[int, int], int]:
        """Minimum-value edge on the u-to-root path.

        Ties break toward the edge closest to u.  Returns ((child, parent),
        value) for the winning edge.
        """
        par, val = self.rep_par, self.val
        if par[u] == -1:
            raise NoParentError(f"node {u} is a root")
        best = u
        u = par[u]
        while par[u] != -1:
            if val[u] < val[best]:  # strict, so an equal edge nearer u stays
                best = u
            u = par[u]
        return (best, par[best]), val[best]

    def add_path(self, u: int, x: int) -> None:
        """Add x to every edge value on the u-to-root path (no-op on roots)."""
        par, val = self.rep_par, self.val
        while par[u] != -1:
            val[u] += x
            u = par[u]

    def edge_value(self, u: int) -> int:
        """Current value of u's parent edge."""
        if self.rep_par[u] == -1:
            raise NoParentError(f"node {u} is a root")
        return self.val[u]
