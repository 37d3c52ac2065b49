import random

import pytest

from hierflow.errors import NoParentError, NotARootError, SameTreeError
from hierflow.forest import DynForest


class NaiveForest:
    """Parent-pointer oracle with O(depth) scans."""

    def __init__(self, n):
        self.parent = [-1] * n
        self.value = [None] * n

    def link(self, u, v, value):
        assert self.parent[u] == -1
        assert self.find_root(v) != u
        self.parent[u] = v
        self.value[u] = value

    def cut(self, u):
        assert self.parent[u] != -1
        self.parent[u] = -1
        self.value[u] = None

    def find_root(self, u):
        while self.parent[u] != -1:
            u = self.parent[u]
        return u

    def find_min(self, u):
        assert self.parent[u] != -1
        best = None
        best_edge = None
        while self.parent[u] != -1:
            if best is None or self.value[u] < best:  # first-from-u wins ties
                best = self.value[u]
                best_edge = (u, self.parent[u])
            u = self.parent[u]
        return best_edge, best

    def add_path(self, u, x):
        while self.parent[u] != -1:
            self.value[u] += x
            u = self.parent[u]


def test_link_two_singletons():
    f = DynForest(2)
    f.link(0, 1, 5)
    assert f.find_root(0) == 1
    assert f.rep_par[0] == 1


def test_double_link_raises_not_a_root():
    f = DynForest(3)
    f.link(0, 1, 1)
    with pytest.raises(NotARootError):
        f.link(0, 2, 1)


def test_link_same_tree_raises():
    f = DynForest(2)
    f.link(0, 1, 1)
    with pytest.raises(SameTreeError):
        f.link(1, 0, 1)


def test_cut_restores_singletons():
    f = DynForest(2)
    f.link(0, 1, 3)
    f.cut(0)
    assert f.find_root(0) == 0
    assert f.find_root(1) == 1


def test_cut_on_root_raises():
    f = DynForest(2)
    with pytest.raises(NoParentError):
        f.cut(0)


def test_find_root_chain():
    f = DynForest(3)
    f.link(0, 1, 1)
    f.link(1, 2, 1)
    assert f.find_root(0) == 2
    assert f.find_root(1) == 2
    assert f.find_root(2) == 2


def test_find_min_chain():
    f = DynForest(3)
    f.link(0, 1, 3)
    f.link(1, 2, 1)
    edge, val = f.find_min(0)
    assert edge == (1, 2) and val == 1


def test_find_min_tie_breaks_closest_to_u():
    f = DynForest(3)
    f.link(0, 1, 2)
    f.link(1, 2, 2)
    edge, val = f.find_min(0)
    assert edge == (0, 1) and val == 2


def test_find_min_on_root_raises():
    f = DynForest(1)
    with pytest.raises(NoParentError):
        f.find_min(0)


def test_add_path_on_root_is_noop():
    f = DynForest(2)
    f.add_path(1, 5)  # no parent: nothing to update
    f.link(0, 1, 1)
    assert f.find_min(0)[1] == 1


def test_add_path_chain():
    f = DynForest(3)
    f.link(0, 1, 3)
    f.link(1, 2, 1)
    f.add_path(0, -1)
    assert f.edge_value(0) == 2
    assert f.edge_value(1) == 0


def test_randomized_against_oracle_small():
    # independent draws per op so the value streams stay aligned
    for seed in range(8):
        rng = random.Random(seed)
        n = 30
        f = DynForest(n)
        naive = NaiveForest(n)
        for _ in range(2000):
            op = rng.choice(["link", "cut", "root", "min", "add"])
            u = rng.randrange(n)
            if op == "link":
                v = rng.randrange(n)
                if u != v and naive.parent[u] == -1 and naive.find_root(v) != u:
                    val = rng.randint(-10, 50)
                    f.link(u, v, val)
                    naive.link(u, v, val)
            elif op == "cut" and naive.parent[u] != -1:
                f.cut(u)
                naive.cut(u)
            elif op == "root":
                assert f.find_root(u) == naive.find_root(u)
            elif op == "min" and naive.parent[u] != -1:
                assert f.find_min(u) == naive.find_min(u)
            elif op == "add":
                x = rng.randint(-4, 8)
                f.add_path(u, x)
                naive.add_path(u, x)


def test_values_beyond_float_range_against_oracle():
    # values and add_path amounts beyond 2^1100 must stay exact ints, far
    # past where a float would round them or overflow
    big = 2 ** 1100
    for seed in range(4):
        rng = random.Random(seed)
        n = 20
        f = DynForest(n)
        naive = NaiveForest(n)
        for _ in range(1500):
            op = rng.choice(["link", "cut", "root", "min", "add", "value"])
            u = rng.randrange(n)
            if op == "link":
                v = rng.randrange(n)
                if u != v and naive.parent[u] == -1 and naive.find_root(v) != u:
                    val = rng.randint(1, 9) * big + rng.randint(-10, 50)
                    f.link(u, v, val)
                    naive.link(u, v, val)
            elif op == "cut" and naive.parent[u] != -1:
                f.cut(u)
                naive.cut(u)
            elif op == "root":
                assert f.find_root(u) == naive.find_root(u)
            elif op == "min" and naive.parent[u] != -1:
                assert f.find_min(u) == naive.find_min(u)
            elif op == "add":
                x = rng.randint(-2, 2) * big + rng.randint(-4, 8)
                f.add_path(u, x)
                naive.add_path(u, x)
            elif op == "value" and naive.parent[u] != -1:
                assert f.edge_value(u) == naive.value[u]


def test_deep_chain_with_big_values():
    # one path 0 -> 1 -> ... -> n-1, far deeper than the recursion limit;
    # each link's same-tree check starts at a root, so it is O(1).  Edge i
    # holds big + (i - 30000) mod 50000: the minimum, big, first sits on
    # edge 30000 and ties on edge 80000
    big = 2 ** 1100
    n = 100_000
    f = DynForest(n)
    for i in range(n - 1):
        f.link(i, i + 1, big + (i - 30_000) % 50_000)
    assert f.find_root(0) == n - 1
    assert f.find_min(0) == ((30_000, 30_001), big)
    assert f.find_min(30_001) == ((80_000, 80_001), big)
    f.add_path(0, -big - 1)
    assert f.edge_value(0) == 19_999
    assert f.edge_value(n - 2) == 19_997
    assert f.find_min(0) == ((30_000, 30_001), -1)
    with pytest.raises(NoParentError):
        f.edge_value(n - 1)
    f.cut(50_000)
    assert f.find_root(0) == 50_000 and f.find_root(50_001) == n - 1
