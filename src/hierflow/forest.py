"""Link-cut trees over rooted forests with edge values.

Supports link, cut, find_root, find_min and add_path in amortized
logarithmic time.  Values live on edges and are stored at the child
endpoint; represented roots hold a neutral +inf sentinel so path
aggregates never see them.  No arithmetic ever touches the sentinel: a
pushed amount skips roots and subtree minima that are the sentinel, so
values of any integer size stay exact (a float +inf plus an int beyond
the float range would raise OverflowError).

A node's `val` and `mn` (the minimum over its splay subtree) are always
current; its `lz` is an amount still owed to both children's subtrees.

Splay trees are ordered by depth: in-order left to right runs from the
represented root down to the accessed node.  No rerooting or subtree
aggregates; only what capacitated augmentation needs.
"""
from __future__ import annotations

import math
from typing import List, Tuple

from .errors import NoParentError, NotARootError, SameTreeError

INF = math.inf


class DynForest:
    """Forest of rooted trees over nodes 0..n-1."""

    def __init__(self, n: int):
        self.n = n
        self.left: List[int] = [-1] * n
        self.right: List[int] = [-1] * n
        self.par: List[int] = [-1] * n  # splay parent or path-parent
        self.val: List[float] = [INF] * n  # value of parent edge
        self.mn: List[float] = [INF] * n
        self.lz: List[int] = [0] * n
        self.rep_par: List[int] = [-1] * n  # represented-tree parent
        self.rotations = 0

    # splay machinery ----------------------------------------------------

    def _is_splay_root(self, x: int) -> bool:
        p = self.par[x]
        return p == -1 or (self.left[p] != x and self.right[p] != x)

    def _push(self, x: int) -> None:
        z = self.lz[x]
        if z:
            for c in (self.left[x], self.right[x]):
                if c != -1:
                    if self.rep_par[c] != -1:
                        self.val[c] += z
                    if self.mn[c] != INF:
                        self.mn[c] += z
                    self.lz[c] += z
            self.lz[x] = 0

    def _update(self, x: int) -> None:
        m = self.val[x]
        l, r = self.left[x], self.right[x]
        if l != -1 and self.mn[l] < m:
            m = self.mn[l]
        if r != -1 and self.mn[r] < m:
            m = self.mn[r]
        self.mn[x] = m

    def _rotate(self, x: int) -> None:
        p = self.par[x]
        g = self.par[p]
        self.rotations += 1
        if self.left[p] == x:
            b = self.right[x]
            self.right[x] = p
            self.left[p] = b
        else:
            b = self.left[x]
            self.left[x] = p
            self.right[p] = b
        if b != -1:
            self.par[b] = p
        self.par[p] = x
        self.par[x] = g
        if g != -1:
            if self.left[g] == p:
                self.left[g] = x
            elif self.right[g] == p:
                self.right[g] = x
        self._update(p)
        self._update(x)

    def _splay(self, x: int) -> None:
        path = [x]
        while not self._is_splay_root(path[-1]):
            path.append(self.par[path[-1]])
        for y in reversed(path):
            self._push(y)
        while not self._is_splay_root(x):
            p = self.par[x]
            if not self._is_splay_root(p):
                g = self.par[p]
                if (self.left[g] == p) == (self.left[p] == x):
                    self._rotate(p)
                else:
                    self._rotate(x)
            self._rotate(x)

    def _access(self, x: int) -> None:
        self._splay(x)
        if self.right[x] != -1:
            # deeper part of the preferred path splits off
            self.right[x] = -1
            self._update(x)
        while self.par[x] != -1:
            p = self.par[x]
            self._splay(p)
            if self.right[p] != -1:
                self.right[p] = -1
            self.right[p] = x
            self._update(p)
            self._splay(x)

    # public interface ---------------------------------------------------

    def link(self, u: int, v: int, value: int) -> None:
        """Attach root u below v with edge value `value`."""
        if self.rep_par[u] != -1:
            raise NotARootError(f"node {u} already has a parent")
        if self.find_root(v) == u:
            raise SameTreeError(f"nodes {u} and {v} share a tree")
        self.link_unchecked(u, v, value)

    def link_unchecked(self, u: int, v: int, value: int) -> None:
        """link() without precondition checks; caller guarantees them."""
        self._access(u)
        self._access(v)
        self.par[u] = v
        self.val[u] = value
        self.rep_par[u] = v
        self._update(u)

    def cut(self, u: int) -> None:
        """Detach u (and its subtree) from its parent."""
        if self.rep_par[u] == -1:
            raise NoParentError(f"node {u} is a root")
        self._access(u)
        l = self.left[u]
        self.left[u] = -1
        if l != -1:
            self.par[l] = -1
        self.val[u] = INF
        self.rep_par[u] = -1
        self._update(u)

    def find_root(self, u: int) -> int:
        self._access(u)
        x = u
        self._push(x)
        while self.left[x] != -1:
            x = self.left[x]
            self._push(x)
        self._splay(x)
        return x

    def find_min(self, u: int) -> Tuple[Tuple[int, int], float]:
        """Minimum-value edge on the u-to-root path.

        Ties break toward the edge closest to u.  Returns ((child, parent),
        value) for the winning edge.
        """
        if self.rep_par[u] == -1:
            raise NoParentError(f"node {u} is a root")
        self._access(u)
        # whole splay tree covers root..u; root's sentinel never wins
        x = u
        self._push(x)
        target = self.mn[x]
        while True:
            r = self.right[x]
            if r != -1 and self.mn[r] == target:
                x = r
                self._push(x)
                continue
            if self.val[x] == target:
                break
            x = self.left[x]
            self._push(x)
        self._splay(x)
        return (x, self.rep_par[x]), self.val[x]

    def add_path(self, u: int, x: int) -> None:
        """Add x to every edge value on the u-to-root path (no-op on roots)."""
        self._access(u)
        if self.rep_par[u] != -1:
            # u is the splay root: its whole tree is the root-to-u path
            self.val[u] += x
            self.mn[u] += x
            self.lz[u] += x

    def edge_value(self, u: int) -> float:
        """Current value of u's parent edge."""
        if self.rep_par[u] == -1:
            raise NoParentError(f"node {u} is a root")
        self._access(u)
        return self.val[u]
