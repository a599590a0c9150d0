"""Shared invariant checkers and independent brute-force oracles.

Everything here deliberately avoids the library's own traversal/scoring
code paths: depths come from enumerating leaf constraint sets, AUC from
pairwise comparison, 2-means from scanning every sorted split.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from imondrian.data_io import _structure_problem
from imondrian.forest import c_factor
from imondrian.tree import FIELD_NAMES, NO_NODE, node_fields

from reference import Tree, links, subtree_counts, walk


def check_tree_invariants(
    tree: Tree,
    points: np.ndarray | None = None,
    expected_population: int | None = None,
) -> dict:
    """Assert every structural invariant; returns node-count breakdown."""
    assert tree.root != NO_NODE, "tree has no root"
    assert tree.parent[tree.root] == NO_NODE, "root must have no parent"

    leaves = 0
    internals = 0
    seen = set()
    stack = [(int(tree.root), 0.0)]  # (node, parent split time; root's parent time is 0)
    while stack:
        node, parent_time = stack.pop()
        assert node not in seen, f"node {node} reachable twice"
        seen.add(node)
        t = float(tree.split_time[node])
        assert tree.population[node] >= 1, f"node {node} has empty population"
        assert (tree.box_min[node] <= tree.box_max[node]).all(), f"node {node} box inverted"
        left, right = int(tree.left[node]), int(tree.right[node])
        if left == NO_NODE:
            leaves += 1
            assert right == NO_NODE, f"leaf {node} has a right child"
            assert t == math.inf, f"leaf {node} must have infinite split time"
        else:
            internals += 1
            assert right != NO_NODE, f"internal {node} missing right child"
            assert math.isfinite(t), f"internal {node} needs a finite split time"
            assert t > parent_time, f"node {node}: time {t} not above parent {parent_time}"
            q = int(tree.split_dim[node])
            p = float(tree.split_val[node])
            assert 0 <= q < tree.dim
            assert tree.box_min[node, q] <= p <= tree.box_max[node, q], (
                f"node {node}: split value {p} outside its box on dim {q}"
            )
            assert tree.population[node] == tree.population[left] + tree.population[right], (
                f"node {node}: population mismatch"
            )
            for child in (left, right):
                assert int(tree.parent[child]) == node, f"child {child} parent link broken"
                assert (tree.box_min[child] >= tree.box_min[node]).all(), "box not nested"
                assert (tree.box_max[child] <= tree.box_max[node]).all(), "box not nested"
                stack.append((child, t))
    assert len(seen) == tree.size, f"{tree.size - len(seen)} arena slots unreachable"
    assert leaves == internals + 1, "not a proper binary tree"
    if expected_population is not None:
        assert int(tree.population[tree.root]) == expected_population
    if points is not None:
        for x in np.atleast_2d(points):
            leaf = walk(tree, x)[-1]
            assert (x >= tree.box_min[leaf]).all() and (x <= tree.box_max[leaf]).all(), (
                f"point {x} routed to a leaf whose box does not contain it"
            )
    return {"leaves": leaves, "internals": internals}


def check_arena_invariants(arena, points=None, expected_population: int | None = None) -> dict:
    """``check_tree_invariants`` for every tree of a ``Forest`` in one
    pass over its arrays, the links read off its child table as they are,
    where only used leaves count points: each at least one, a tree's counts
    summing to ``expected_population``. Returns each tree's leaf and
    internal counts. Written apart from the model loader's validator, which
    it then runs too."""
    T, C = arena.population.shape
    TC = T * C
    flat = np.arange(TC)
    tree_of = flat // C
    used = flat % C < arena.size[tree_of]
    left, right = arena.child[:TC], arena.child[TC:]
    assert ((arena.root >= 0) & (arena.root < arena.size)).all(), "tree has no root"
    for side in (left, right):
        assert (side[used] // C == tree_of[used]).all() and used[side[used]].all(), "link leaves its tree's used slots"
    leaf = left == flat
    assert (leaf == (right == flat))[used].all(), "node with exactly one child"

    # level walk from the roots: every used slot is reached once, so no node
    # has two parents and no root has one
    roots = np.arange(T) * C + arena.root
    seen = np.zeros(TC, dtype=np.int64)
    level = roots
    for _ in range(int(arena.size.max())):
        seen += np.bincount(level, minlength=TC)
        inner = level[~leaf[level]]
        level = np.concatenate([left[inner], right[inner]])
        if not level.size:
            break
    assert not level.size and (seen <= 1).all(), "a node is reachable twice"
    assert (seen[used] == 1).all() and (np.bincount(tree_of, seen, T) == arena.size).all(), "arena slots unreachable"

    split_time = arena.split_time.ravel()
    population = arena.population.ravel()
    box_min, box_max = arena.box_min.reshape(TC, -1), arena.box_max.reshape(TC, -1)
    assert (population[used & leaf] >= 1).all(), "leaf with empty population"
    assert not population[~(used & leaf)].any(), "a count outside the leaves"
    assert (box_min[used] <= box_max[used]).all(), "box inverted"
    assert np.isposinf(split_time[used & leaf]).all(), "leaf must have infinite split time"
    inner = np.flatnonzero(used & ~leaf)
    assert np.isfinite(split_time[inner]).all(), "internal node needs a finite split time"
    kids = np.concatenate([left[inner], right[inner]])
    assert (split_time[kids] > np.tile(split_time[inner], 2)).all(), "split time not above its parent's"
    assert (split_time[roots] > 0.0).all(), "root split time not above 0"
    q = arena.split_dim.ravel()[inner].astype(np.int64)
    assert ((q >= 0) & (q < arena.dim)).all(), "split dimension out of range"
    p = arena.split_val.ravel()[inner]
    lo_kid, hi_kid = left[inner], right[inner]
    assert ((box_max[lo_kid, q] < p) & (p <= box_min[hi_kid, q])).all(), "a cut does not separate its children"
    # bit for bit, so a zero bound's sign counts
    assert np.minimum(box_min[lo_kid], box_min[hi_kid]).tobytes() == box_min[inner].tobytes(), "box not a union"
    assert np.maximum(box_max[lo_kid], box_max[hi_kid]).tobytes() == box_max[inner].tobytes(), "box not a union"
    leaves = np.bincount(tree_of[used & leaf], minlength=T)
    internals = np.bincount(tree_of[inner], minlength=T)
    assert (leaves == internals + 1).all(), "not a proper binary tree"
    if expected_population is not None:
        assert (arena.population.sum(axis=1) == expected_population).all(), "tree count sum"
    if points is not None:
        # walk every (tree, point) lane down its tree, one level per step
        X = np.atleast_2d(np.asarray(points, dtype=float))
        node = np.repeat(roots, X.shape[0])
        x = np.tile(X, (T, 1))
        rows = np.arange(node.size)
        while True:
            go = x[rows, arena.split_dim.ravel()[node]] >= arena.split_val.ravel()[node]
            nxt = np.where(go, right[node], left[node])
            if (nxt == node).all():
                break
            node = nxt
        assert ((x >= box_min[node]) & (x <= box_max[node])).all(), (
            "a point routed to a leaf whose box does not contain it"
        )
    assert _structure_problem(arena) is None
    return {"leaves": leaves, "internals": internals}


def structurally_equal(a: Tree, b: Tree) -> bool:
    """Exact structural equality: same shape, links, populations, and
    bit-identical split values, times, and boxes."""
    if a.dim != b.dim or a.size != b.size or a.root != b.root:
        return False
    n = a.size
    return all(np.array_equal(getattr(a, f)[:n], getattr(b, f)[:n]) for f in TREE_FIELDS)


def leaf_constraint_table(tree: Tree) -> list[tuple[int, int, list[tuple[int, float, bool]]]]:
    """All leaves as (leaf_index, depth, [(dim, cut, went_left), ...])."""
    table = []
    stack: list[tuple[int, int, list]] = [(int(tree.root), 0, [])]
    while stack:
        node, depth, constraints = stack.pop()
        if int(tree.left[node]) == NO_NODE:
            table.append((node, depth, constraints))
            continue
        q = int(tree.split_dim[node])
        p = float(tree.split_val[node])
        stack.append((int(tree.left[node]), depth + 1, constraints + [(q, p, True)]))
        stack.append((int(tree.right[node]), depth + 1, constraints + [(q, p, False)]))
    return table


def leaf_term(population: int) -> float:
    """iForest's PathLength adjustment for a leaf of m points (Liu, Ting &
    Zhou 2008, Alg. 3): 0 for one point, c_factor(m) for m >= 2."""
    return c_factor(population) if population > 1 else 0.0


def depth_oracle(tree: Tree, x) -> float:
    """Scoring depth of x: the depth of the unique leaf whose constraint set
    admits x, plus leaf_term of that leaf's population."""
    x = np.asarray(x, dtype=float)
    matches = []
    for leaf, depth, constraints in leaf_constraint_table(tree):
        ok = all((x[q] < p) == went_left for q, p, went_left in constraints)
        if ok:
            matches.append(depth + leaf_term(int(tree.population[leaf])))
    assert len(matches) == 1, f"{len(matches)} leaf regions claim the point"
    return matches[0]


def scored_depth(tree: Tree, x) -> float:
    """depth_oracle by walking the links by hand, for trees too large to
    enumerate: edges to x's leaf plus leaf_term of its population."""
    path = walk(tree, x)
    return len(path) - 1 + leaf_term(int(tree.population[path[-1]]))


def auc_oracle(scores, labels) -> float:
    """Pairwise AUC: wins + half-ties over all (anomaly, normal) pairs."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def kmeans2_oracle(scores) -> tuple[np.ndarray, tuple[float, float]]:
    """Optimal 1-D 2-means by scanning all n-1 splits of the sorted scores.

    Returns (labels aligned with the input, (low mean, high mean)); label 1
    marks membership in the greater-mean cluster.
    """
    s = np.asarray(scores, dtype=float)
    order = np.argsort(s, kind="mergesort")
    v = s[order]
    n = v.size
    prefix = np.concatenate([[0.0], np.cumsum(v)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(v * v)])

    def sse(i, j):  # sum of squared deviations of v[i:j]
        count = j - i
        total = prefix[j] - prefix[i]
        total_sq = prefix_sq[j] - prefix_sq[i]
        return total_sq - total * total / count

    best_k, best_cost = 1, math.inf
    for k in range(1, n):
        cost = sse(0, k) + sse(k, n)
        if cost < best_cost:
            best_cost = cost
            best_k = k
    labels = np.zeros(n, dtype=np.int64)
    labels[order[best_k:]] = 1
    means = (float(v[:best_k].mean()), float(v[best_k:].mean()))
    return labels, means


def bbox_oracle(points) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise min/max by explicit looping."""
    pts = [np.asarray(p, dtype=float) for p in points]
    lo = pts[0].copy()
    hi = pts[0].copy()
    for p in pts[1:]:
        for j in range(p.size):
            lo[j] = min(lo[j], p[j])
            hi[j] = max(hi[j], p[j])
    return lo, hi


def random_dataset(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Mixed-shape random data, sometimes with exact duplicate rows."""
    kind = rng.integers(0, 3)
    if kind == 0:
        X = rng.uniform(-5.0, 5.0, size=(n, d))
    elif kind == 1:
        X = rng.normal(0.0, 2.0, size=(n, d))
    else:
        centers = rng.uniform(-8.0, 8.0, size=(3, d))
        X = centers[rng.integers(0, 3, n)] + rng.normal(0.0, 0.5, size=(n, d))
    if n >= 4 and rng.random() < 0.3:
        # duplicate a random row a few times
        src = int(rng.integers(0, n))
        for dst in rng.integers(0, n, size=3):
            X[dst] = X[src]
    return X


def deterministic(max_examples: int, **options):
    """Decorate a hypothesis test, or a state machine's ``TestCase``, to run
    ``max_examples`` derandomized examples with no example database and no
    deadline (plus any other hypothesis ``options``).

    On a failure, hypothesis's pytest plugin imports libcst to suggest a
    patch, and libcst warns on import; as an error that would end the test
    run, so the decorated test alone ignores that warning."""
    chosen = settings(derandomize=True, database=None, deadline=None, max_examples=max_examples, **options)

    def decorate(test):
        if isinstance(test, type):  # a state machine's TestCase reads the class attribute
            test.settings = chosen
        else:
            test = chosen(test)
        return pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")(test)

    return decorate


# A one-tree model in the retired format v1 (a JSON record per node), as a
# v1 build wrote it.
V1_MODEL = (
    "imondrian-forest v1 sha256=b679dcc28b926c42b269671f9d6a0a4c55707fb94b865971377576d00752db1d\n"
    '{"n_effective":3,"psi":null,"seed":0,"dim":2,"num_trees":1,"trees":[{"rng_state":{"b'
    'it_generator":"PCG64","state":{"state":167992483628264729109646010800399094899,"inc"'
    ':273096372282096494456322297521699537235},"has_uint32":0,"uinteger":0},"nodes":[{"ki'
    'nd":"internal","split_dim":0,"split_val":2.1670277659494763,"split_time":0.658705558'
    '1619655,"population":3,"box_min":[0.0,0.0],"box_max":[3.0,2.0]},{"kind":"internal","'
    'split_dim":1,"split_val":1.2960761951745656,"split_time":0.7340220570974417,"populat'
    'ion":2,"box_min":[0.0,0.0],"box_max":[1.0,2.0]},{"kind":"leaf","population":1,"box_m'
    'in":[0.0,0.0],"box_max":[0.0,0.0]},{"kind":"leaf","population":1,"box_min":[1.0,2.0]'
    ',"box_max":[1.0,2.0]},{"kind":"leaf","population":1,"box_min":[3.0,1.0],"box_max":[3'
    '.0,1.0]}]}]}'
)


# A three-tree v2 model (d = 2, seed 0, trained on three points and extended
# by a fourth) as written by a build that drew one exponential per candidate
# node when extending, and the expected path lengths it gave for V2_PROBES.
# Version 2 files are rejected now, as version 1 files are.
V2_MODEL = base64.b64decode(
    "aW1vbmRyaWFuLWZvcmVzdCB2MiBzaGEyNTY9OTNjZjEwODczNmJhYjgyMDY5ODQxYThmZmU2ZmI5ZTY4"
    "ZTUzYjIzZGI0MjczNzJjNWYzZDJlNWQ5OWZjYjlmNAp7Im5fZWZmZWN0aXZlIjozLCJwc2kiOm51bGws"
    "InNlZWQiOjAsImRpbSI6MiwibnVtX3RyZWVzIjozLCJ3aWR0aCI6Nywicm9vdCI6WzUsMCw1XSwic2l6"
    "ZSI6WzcsNyw3XSwicm5nX3N0YXRlcyI6W3siYml0X2dlbmVyYXRvciI6IlBDRzY0Iiwic3RhdGUiOnsi"
    "c3RhdGUiOjEzNjcwNzM2NTI1MjQwNjMxOTEwNjkxNTM3MTAyOTI4MTAwNjAwNCwiaW5jIjoyNzMwOTYz"
    "NzIyODIwOTY0OTQ0NTYzMjIyOTc1MjE2OTk1MzcyMzV9LCJoYXNfdWludDMyIjowLCJ1aW50ZWdlciI6"
    "MH0seyJiaXRfZ2VuZXJhdG9yIjoiUENHNjQiLCJzdGF0ZSI6eyJzdGF0ZSI6MTUyMDc1NzcxMzM0OTMw"
    "Njk1NTU2NDcwMzY1MDcyMjg5NjM4OTY5LCJpbmMiOjMyOTAwMjA0MTgwODIwODU4NDAyMjgzNzMyODQ1"
    "NDczOTcwNTE2OX0sImhhc191aW50MzIiOjAsInVpbnRlZ2VyIjowfSx7ImJpdF9nZW5lcmF0b3IiOiJQ"
    "Q0c2NCIsInN0YXRlIjp7InN0YXRlIjoyMTU1NzEzODcyODE5NDkxNTgyNTYwODgyOTMyOTI2MTA5Mzc1"
    "NjEsImluYyI6MTg0NjI1ODQ2NDg4NTg5OTMyNjk3NTc3NjUwNjUxMzgxODczNzY5fSwiaGFzX3VpbnQz"
    "MiI6MCwidWludGVnZXIiOjB9XX0KAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAI"
    "QAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAEEAAAAAAAAAIQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAACEAAAAAAAADw"
    "PwAAAAAAAAAAAAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAACEAAAAAAAADwPwAAAAAAABBAAAAA"
    "AAAACEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAAQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAQQAAAAAAAAAhAAAAA"
    "AAAACEAAAAAAAAAAQAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAIQAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAQQAAAAAAAAAhAAAAAAAAAEEAAAAAAAAAIQAAAAAAAABBAAAAA"
    "AAAACEAAAAAAAADwPwAAAAAAAABAAAAAAAAACEAAAAAAAADwPwAAAAAAAAAAAAAAAAAAAAAAAAAAAADw"
    "PwAAAAAAAABAAAAAAAAAEEAAAAAAAAAIQAAAAAAAABBAAAAAAAAACEAAAAAAAAAIQAAAAAAAAABAAAAA"
    "AAAA8D8AAAAAAAAAQAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAA"
    "QAAAAAAAABBAAAAAAAAACEAAAAAAAAAQQAAAAAAAAAhAAAAAAAEAAAD///////////////8BAAAA////"
    "/wAAAAABAAAA////////////////AQAAAP////8AAAAAAAAAAP///////////////wEAAAD/////LjdC"
    "pxJWAUDIYXZkurz0PwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAPLBW3dKJgJAAAAAAAAAAACYyuOAWl39"
    "P6QW2ZWRqPg/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAArHNy7QklB0AAAAAAAAAAAKDlH7dBpf0/7An/"
    "gKwq3z8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAzV0Zab7oCQAAAAAAAAAAAXfi/rR0U5T9H1jjTG33n"
    "PwAAAAAAAPB/AAAAAAAA8H8AAAAAAADwfwB/uM6B5KA/AAAAAAAA8H86XHKcOY/EPyVDeaA/k9U/AAAA"
    "AAAA8H8AAAAAAADwfwAAAAAAAPB/FVumHKHK+D8AAAAAAADwf//O+bJnltM//AioZaNv8D8AAAAAAADw"
    "fwAAAAAAAPB/AAAAAAAA8H+ZsgmHYMrFPwAAAAAAAPB/AQAAAAMAAAD///////////////8AAAAA////"
    "/wEAAAADAAAA////////////////AgAAAP////8BAAAAAwAAAP///////////////wAAAAD/////AgAA"
    "AAQAAAD///////////////8GAAAA/////wUAAAAEAAAA////////////////BgAAAP////8CAAAABAAA"
    "AP///////////////wYAAAD/////BQAAAAAAAAAAAAAAAQAAAAEAAAD/////BQAAAP////8AAAAABQAA"
    "AAEAAAABAAAAAAAAAAUAAAAFAAAAAAAAAAAAAAABAAAAAQAAAP////8FAAAAAwAAAAAAAAACAAAAAAAA"
    "AAEAAAAAAAAAAQAAAAAAAAABAAAAAAAAAAQAAAAAAAAAAQAAAAAAAAAEAAAAAAAAAAIAAAAAAAAAAQAA"
    "AAAAAAABAAAAAAAAAAEAAAAAAAAAAgAAAAAAAAABAAAAAAAAAAMAAAAAAAAAAgAAAAAAAAABAAAAAAAA"
    "AAEAAAAAAAAAAQAAAAAAAAAEAAAAAAAAAAEAAAAAAAAA"
)
# V2_MODEL's forest written in format v3, which stores the child rows in
# place of the left, right and parent links. Version 3 files are rejected
# now too.
V3_MODEL = base64.b64decode(
    "aW1vbmRyaWFuLWZvcmVzdCB2MyBzaGEyNTY9ODQ5YzJmZGVhNDkzNGMyYmE1NjU5MDE1ZTk2MTBlOGVm"
    "MTVlYzRiYTI5OGE4ODlkYmJhNjM5YzU4OGZlMTNhMAp7Im5fZWZmZWN0aXZlIjozLCJwc2kiOm51bGws"
    "InNlZWQiOjAsImRpbSI6MiwibnVtX3RyZWVzIjozLCJ3aWR0aCI6Nywicm9vdCI6WzUsMCw1XSwic2l6"
    "ZSI6WzcsNyw3XSwicm5nX3N0YXRlcyI6W3siYml0X2dlbmVyYXRvciI6IlBDRzY0Iiwic3RhdGUiOnsi"
    "c3RhdGUiOjEzNjcwNzM2NTI1MjQwNjMxOTEwNjkxNTM3MTAyOTI4MTAwNjAwNCwiaW5jIjoyNzMwOTYz"
    "NzIyODIwOTY0OTQ0NTYzMjIyOTc1MjE2OTk1MzcyMzV9LCJoYXNfdWludDMyIjowLCJ1aW50ZWdlciI6"
    "MH0seyJiaXRfZ2VuZXJhdG9yIjoiUENHNjQiLCJzdGF0ZSI6eyJzdGF0ZSI6MTUyMDc1NzcxMzM0OTMw"
    "Njk1NTU2NDcwMzY1MDcyMjg5NjM4OTY5LCJpbmMiOjMyOTAwMjA0MTgwODIwODU4NDAyMjgzNzMyODQ1"
    "NDczOTcwNTE2OX0sImhhc191aW50MzIiOjAsInVpbnRlZ2VyIjowfSx7ImJpdF9nZW5lcmF0b3IiOiJQ"
    "Q0c2NCIsInN0YXRlIjp7InN0YXRlIjoyMTU1NzEzODcyODE5NDkxNTgyNTYwODgyOTMyOTI2MTA5Mzc1"
    "NjEsImluYyI6MTg0NjI1ODQ2NDg4NTg5OTMyNjk3NTc3NjUwNjUxMzgxODczNzY5fSwiaGFzX3VpbnQz"
    "MiI6MCwidWludGVnZXIiOjB9XX0KAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAI"
    "QAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAEEAAAAAAAAAIQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAACEAAAAAAAADw"
    "PwAAAAAAAAAAAAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAACEAAAAAAAADwPwAAAAAAABBAAAAA"
    "AAAACEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAAQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAQQAAAAAAAAAhAAAAA"
    "AAAACEAAAAAAAAAAQAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAIQAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAQQAAAAAAAAAhAAAAAAAAAEEAAAAAAAAAIQAAAAAAAABBAAAAA"
    "AAAACEAAAAAAAADwPwAAAAAAAABAAAAAAAAACEAAAAAAAADwPwAAAAAAAAAAAAAAAAAAAAAAAAAAAADw"
    "PwAAAAAAAABAAAAAAAAAEEAAAAAAAAAIQAAAAAAAABBAAAAAAAAACEAAAAAAAAAIQAAAAAAAAABAAAAA"
    "AAAA8D8AAAAAAAAAQAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAA"
    "QAAAAAAAABBAAAAAAAAACEAAAAAAAAAQQAAAAAAAAAhAAAAAAAEAAAD///////////////8BAAAA////"
    "/wAAAAABAAAA////////////////AQAAAP////8AAAAAAAAAAP///////////////wEAAAD/////LjdC"
    "pxJWAUDIYXZkurz0PwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAPLBW3dKJgJAAAAAAAAAAACYyuOAWl39"
    "P6QW2ZWRqPg/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAArHNy7QklB0AAAAAAAAAAAKDlH7dBpf0/7An/"
    "gKwq3z8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAzV0Zab7oCQAAAAAAAAAAAXfi/rR0U5T9H1jjTG33n"
    "PwAAAAAAAPB/AAAAAAAA8H8AAAAAAADwfwB/uM6B5KA/AAAAAAAA8H86XHKcOY/EPyVDeaA/k9U/AAAA"
    "AAAA8H8AAAAAAADwfwAAAAAAAPB/FVumHKHK+D8AAAAAAADwf//O+bJnltM//AioZaNv8D8AAAAAAADw"
    "fwAAAAAAAPB/AAAAAAAA8H+ZsgmHYMrFPwAAAAAAAPB/AwAAAAAAAAACAAAAAAAAAAEAAAAAAAAAAQAA"
    "AAAAAAABAAAAAAAAAAQAAAAAAAAAAQAAAAAAAAAEAAAAAAAAAAIAAAAAAAAAAQAAAAAAAAABAAAAAAAA"
    "AAEAAAAAAAAAAgAAAAAAAAABAAAAAAAAAAMAAAAAAAAAAgAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAA"
    "AAAAAAAEAAAAAAAAAAEAAAAAAAAAAQAAAAMAAAACAAAAAwAAAAQAAAAAAAAABgAAAAEAAAADAAAAAgAA"
    "AAMAAAAEAAAAAgAAAAYAAAABAAAAAwAAAAIAAAADAAAABAAAAAAAAAAGAAAAAgAAAAQAAAACAAAAAwAA"
    "AAQAAAAGAAAABgAAAAUAAAAEAAAAAgAAAAMAAAAEAAAABgAAAAYAAAACAAAABAAAAAIAAAADAAAABAAA"
    "AAYAAAAGAAAA"
)
# V2_MODEL's forest written in format v4, which stores the used child
# entries, the cuts of the internal nodes and the populations and boxes of
# the leaves, and each tree's generator state. Version 4 files are rejected
# now too.
V4_MODEL = base64.b64decode(
    "aW1vbmRyaWFuLWZvcmVzdCB2NCBzaGEyNTY9OThiN2FjNDEzNzhjMGVhMGU4NmY1ZWM4OGI0MWNlNTQz"
    "ZWVkNTI0YjY2NmU3YjcxOGRjNGZiZDgyNzU3NDUwOQp7ImRpbSI6Miwicm9vdCI6WzUsMCw1XSwic2l6"
    "ZSI6WzcsNyw3XSwicm5nX3N0YXRlcyI6W3siYml0X2dlbmVyYXRvciI6IlBDRzY0Iiwic3RhdGUiOnsi"
    "c3RhdGUiOjEzNjcwNzM2NTI1MjQwNjMxOTEwNjkxNTM3MTAyOTI4MTAwNjAwNCwiaW5jIjoyNzMwOTYz"
    "NzIyODIwOTY0OTQ0NTYzMjIyOTc1MjE2OTk1MzcyMzV9LCJoYXNfdWludDMyIjowLCJ1aW50ZWdlciI6"
    "MH0seyJiaXRfZ2VuZXJhdG9yIjoiUENHNjQiLCJzdGF0ZSI6eyJzdGF0ZSI6MTUyMDc1NzcxMzM0OTMw"
    "Njk1NTU2NDcwMzY1MDcyMjg5NjM4OTY5LCJpbmMiOjMyOTAwMjA0MTgwODIwODU4NDAyMjgzNzMyODQ1"
    "NDczOTcwNTE2OX0sImhhc191aW50MzIiOjAsInVpbnRlZ2VyIjowfSx7ImJpdF9nZW5lcmF0b3IiOiJQ"
    "Q0c2NCIsInN0YXRlIjp7InN0YXRlIjoyMTU1NzEzODcyODE5NDkxNTgyNTYwODgyOTMyOTI2MTA5Mzc1"
    "NjEsImluYyI6MTg0NjI1ODQ2NDg4NTg5OTMyNjk3NTc3NjUwNjUxMzgxODczNzY5fSwiaGFzX3VpbnQz"
    "MiI6MCwidWludGVnZXIiOjB9XX0KAQAAAAMAAAACAAAAAwAAAAQAAAAAAAAABgAAAAEAAAADAAAAAgAA"
    "AAMAAAAEAAAAAgAAAAYAAAABAAAAAwAAAAIAAAADAAAABAAAAAAAAAAGAAAAAgAAAAQAAAACAAAAAwAA"
    "AAQAAAAGAAAABgAAAAUAAAAEAAAAAgAAAAMAAAAEAAAABgAAAAYAAAACAAAABAAAAAIAAAADAAAABAAA"
    "AAYAAAAGAAAAAAAAAAEAAAABAAAAAAAAAAEAAAABAAAAAAAAAAAAAAABAAAALjdCpxJWAUDIYXZkurz0"
    "P/LBW3dKJgJAmMrjgFpd/T+kFtmVkaj4P6xzcu0JJQdAoOUft0Gl/T/sCf+ArCrfPzNXRlpvugJAXfi/"
    "rR0U5T9H1jjTG33nPwB/uM6B5KA/OlxynDmPxD8lQ3mgP5PVPxVbphyhyvg//875smeW0z/8CKhlo2/w"
    "P5myCYdgysU/AQAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAA"
    "AAAAAAABAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAAAAAAAACEAAAAAAAADw"
    "PwAAAAAAAAAAAAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAAEEAAAAAAAAAIQAAAAAAAAAhAAAAA"
    "AAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAAQAAAAAAAABBAAAAAAAAACEAAAAAAAAAI"
    "QAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAQQAAAAAAAAAhAAAAA"
    "AAAACEAAAAAAAADwPwAAAAAAAAAAAAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAAEEAAAAAAAAAI"
    "QAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAAQAAAAAAAABBAAAAA"
    "AAAACEAAAAAAAAAIQAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAQ"
    "QAAAAAAAAAhA"
)
# V2_MODEL's trees in format v5, which stores V4_MODEL's arrays and each
# tree's key and draw count in place of its generator state: the keys of
# seed 0 and the counts its three points and the arrival give. It scores
# V2_PATH_LENGTHS too.
V5_MODEL = base64.b64decode(
    "aW1vbmRyaWFuLWZvcmVzdCB2NSBzaGEyNTY9YjA0ZDA5MzdjMGU3MmI5MDc2YjkxMGZjYzljYmY4NTJl"
    "OTEwMGNjZGY1OWI5OTFhYzk2YjVlZDNmZTQ5YjlhOQp7ImRpbSI6Miwicm9vdCI6WzUsMCw1XSwic2l6"
    "ZSI6WzcsNyw3XSwia2V5IjpbMTU3OTMyMzUzODMzODc3MTU3NzQsMTIzOTA2Mzg1MzgzODA2NTUxNzcs"
    "MjM2MTgzNjEwOTY1MTc0MjAxN10sImRyYXdzIjpbMTEsMTEsMTFdfQoBAAAAAwAAAAIAAAADAAAABAAA"
    "AAAAAAAGAAAAAQAAAAMAAAACAAAAAwAAAAQAAAACAAAABgAAAAEAAAADAAAAAgAAAAMAAAAEAAAAAAAA"
    "AAYAAAACAAAABAAAAAIAAAADAAAABAAAAAYAAAAGAAAABQAAAAQAAAACAAAAAwAAAAQAAAAGAAAABgAA"
    "AAIAAAAEAAAAAgAAAAMAAAAEAAAABgAAAAYAAAAAAAAAAQAAAAEAAAAAAAAAAQAAAAEAAAAAAAAAAAAA"
    "AAEAAAAuN0KnElYBQMhhdmS6vPQ/8sFbd0omAkCYyuOAWl39P6QW2ZWRqPg/rHNy7QklB0Cg5R+3QaX9"
    "P+wJ/4CsKt8/M1dGWm+6AkBd+L+tHRTlP0fWONMbfec/AH+4zoHkoD86XHKcOY/EPyVDeaA/k9U/FVum"
    "HKHK+D//zvmyZ5bTP/wIqGWjb/A/mbIJh2DKxT8BAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAABAAAAAAAA"
    "AAEAAAAAAAAAAQAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAA"
    "AAAAAAAAAAAAAAAIQAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAPA/AAAAAAAAAEAAAAAAAAAQ"
    "QAAAAAAAAAhAAAAAAAAACEAAAAAAAADwPwAAAAAAAAAAAAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAA"
    "AAAAEEAAAAAAAAAIQAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAA"
    "QAAAAAAAABBAAAAAAAAACEAAAAAAAAAIQAAAAAAAAPA/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAPA/AAAA"
    "AAAAAEAAAAAAAAAQQAAAAAAAAAhAAAAAAAAACEAAAAAAAADwPwAAAAAAAAAAAAAAAAAAAAAAAAAAAADw"
    "PwAAAAAAAABAAAAAAAAAEEAAAAAAAAAIQAAAAAAAAAhAAAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAA8D8AAAAAAAAAQAAAAAAAABBAAAAAAAAACEA="
)
V2_PROBES = [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [4.0, 3.0], [2.0, 2.0], [-5.0, 9.0]]
V2_PATH_LENGTHS = [
    2.6666666666666665, 2.6666666666666665, 2.0, 1.3333333333333333, 2.3333333333333335, 1.3333333333333333,
]


# every per-node array of a tree view, in the order arena_fingerprint hashes them
TREE_FIELDS = ("box_min", "box_max", "split_dim", "split_val", "split_time", "left", "right", "parent", "population")


def node_arrays(arena) -> dict[str, np.ndarray]:
    """Every per-node array of an arena by name, in ``TREE_FIELDS`` order,
    with the links read off its child table by ``reference.links`` and each
    internal slot's population the count sum of its children's, as a
    reference tree keeps it (``reference.subtree_counts``)."""
    read = dict(zip(("left", "right", "parent"), links(arena)))
    read["population"] = np.stack([
        subtree_counts(arena.population[t], read["left"][t], read["right"][t], int(arena.root[t]))
        for t in range(arena.num_trees)
    ])
    return {name: read[name] if name in read else getattr(arena, name) for name in TREE_FIELDS}


def tree_bits(tree) -> tuple:
    """A tree's root, size, the bytes of every per-node array's used slots
    (so -0.0 differs from 0.0), its key and its draw count."""
    used = tree.size
    fields = [np.ascontiguousarray(getattr(tree, name)[:used]).tobytes() for name in TREE_FIELDS]
    return int(tree.root), int(used), fields, tree.key, tree.draws


def arena_state(arena) -> tuple:
    """Everything an insert may write: every field in full, ``child``, the
    roots, sizes and capacity, and the keys and draw counts."""
    fields = [getattr(arena, name).tobytes() for name in FIELD_NAMES]
    rows = [getattr(arena, name).tobytes() for name in ("child", "root", "size", "key", "draws")]
    return fields, rows, arena.capacity


def arena_fingerprint(arena) -> str:
    """SHA-256 of an arena's state: every node field's used slots, tree by
    tree, then ``root``, ``size``, ``key`` and ``draws``."""
    digest = hashlib.sha256()
    for field in node_arrays(arena).values():
        for t, used in enumerate(arena.size.tolist()):
            digest.update(np.ascontiguousarray(field[t, :used]).tobytes())
    for name in ("root", "size", "key", "draws"):
        digest.update(getattr(arena, name).tobytes())
    return digest.hexdigest()


# arena_fingerprint after the fixed extension run of
# test_forest.TestLockstepArena.test_extension_stream_is_pinned (20 trees,
# psi 64, 512 rows, 300 arrivals inside the box, far outside it and on
# duplicates), as the hashed per-tree draws give it
EXTENSION_FINGERPRINT = "2468e71b774f3363be27cf459a64b875827ffae728caaca0740fade8ba9df677"

# SHA-256 of the Forest.route sums of test_forest._pinned_route_cases
# (a duplicate-free forest over two point blocks, then a forest with
# duplicate leaves over several trees per pass), in that order
ROUTE_FINGERPRINT = "31c5d144bf51d7b574582b2013a1fccf436ddd85c75ebb29a27340f7f13e26f7"


def read_model(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata dict and writable arrays of a saved model file, parsed
    by hand from the layout ``save_model`` documents, in file order:
    ``child``, a (2, S) int32 array over the S used slots of every tree in
    turn, then ``split_dim``, ``split_val`` and ``split_time`` over the
    internal slots, then ``population``, ``box_min`` and ``box_max`` over
    the leaf slots, (S + T) / 2 of them for T trees."""
    raw = path.read_bytes()
    header_end = raw.index(b"\n")
    meta_end = raw.index(b"\n", header_end + 1)
    meta = json.loads(raw[header_end + 1 : meta_end])
    slots = sum(meta["size"])
    leaves = (slots + len(meta["size"])) // 2
    fields = {name: (dtype, shape) for name, dtype, shape, _ in node_fields((), meta["dim"])}
    layout = [("child", np.dtype(np.int32), (2, slots))]
    for names, count in ((("split_dim", "split_val", "split_time"), slots - leaves),
                         (("population", "box_min", "box_max"), leaves)):
        layout += [(name, fields[name][0], (count,) + fields[name][1]) for name in names]
    arrays, offset = {}, meta_end + 1
    for name, dtype, shape in layout:
        size = math.prod(shape)
        arrays[name] = np.frombuffer(raw, dtype.newbyteorder("<"), size, offset).reshape(shape).copy()
        offset += size * dtype.itemsize
    assert offset == len(raw), "trailing bytes after the node arrays"
    return meta, arrays


def reseal_model(path, edit) -> None:
    """Apply edit(meta, arrays) to a saved model file and write it back with
    a matching checksum, as a hand edit that keeps the file well-formed would."""
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    meta, arrays = read_model(path)
    edit(meta, arrays)
    body = json.dumps(meta, separators=(",", ":")).encode() + b"\n"
    body += b"".join(arrays[name].astype(arrays[name].dtype.newbyteorder("<")).tobytes() for name in arrays)
    magic, version, _ = header.split()
    digest = hashlib.sha256(body).hexdigest()
    path.write_bytes(f"{magic} {version} sha256={digest}\n".encode() + body)


# hand edits of a v5 metadata line's ``key`` or ``draws`` that a load
# refuses: an entry outside [0, 2**64), one that is not a JSON integer, and
# a list one entry short
BAD_DRAW_STATES = [
    pytest.param(name, edit, id=f"{name}-{label}")
    for name in ("key", "draws")
    for label, edit in [
        ("minus-1", lambda v: [-1] + v[1:]),
        ("2**64", lambda v: [1 << 64] + v[1:]),
        ("1.5", lambda v: [1.5] + v[1:]),
        ("true", lambda v: [True] + v[1:]),
        ("str-7", lambda v: ["7"] + v[1:]),
        ("one-short", lambda v: v[:-1]),
    ]
]


def fork_on(monkeypatch, cpus: int, fork_lanes: int | None = None, build_lanes: int | None = None) -> list[int]:
    """Make the fork-joins of ``Forest.route`` and ``Forest.grow``
    see ``cpus`` usable CPUs (and, if given, per-worker lane floors of
    ``fork_lanes`` for routing and ``build_lanes`` for building), and count
    their forks: the returned list gains one entry per ``os.fork`` call in
    this process."""
    monkeypatch.setattr("imondrian.tree._usable_cpus", lambda: list(range(cpus)))
    if fork_lanes is not None:
        monkeypatch.setattr("imondrian.tree.FORK_LANES", fork_lanes)
    if build_lanes is not None:
        monkeypatch.setattr("imondrian.tree.FORK_BUILD_LANES", build_lanes)
    forks: list[int] = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_children() -> None:
    """No child process of this one is left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process was left behind")
