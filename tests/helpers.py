"""Shared invariant checkers and independent brute-force oracles.

Everything here deliberately avoids the library's own traversal/scoring
code paths: depths come from enumerating leaf constraint sets, AUC from
pairwise comparison, 2-means from scanning every sorted split.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from imondrian.tree import NO_NODE, MondrianTree, node_fields


def check_tree_invariants(
    tree: MondrianTree,
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
        assert np.all(tree.box_min[node] <= tree.box_max[node]), f"node {node} box inverted"
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
                assert np.all(tree.box_min[child] >= tree.box_min[node]), "box not nested"
                assert np.all(tree.box_max[child] <= tree.box_max[node]), "box not nested"
                stack.append((child, t))
    assert len(seen) == tree.size, f"{tree.size - len(seen)} arena slots unreachable"
    assert leaves == internals + 1, "not a proper binary tree"
    if expected_population is not None:
        assert int(tree.population[tree.root]) == expected_population
    if points is not None:
        for x in np.atleast_2d(points):
            _assert_routes_into_leaf_box(tree, x)
    return {"leaves": leaves, "internals": internals}


def _assert_routes_into_leaf_box(tree: MondrianTree, x: np.ndarray) -> None:
    node = int(tree.root)
    hops = 0
    while int(tree.left[node]) != NO_NODE:
        q = int(tree.split_dim[node])
        if x[q] < tree.split_val[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
        hops += 1
        assert hops <= tree.size, "routing loop"
    assert np.all(x >= tree.box_min[node]) and np.all(x <= tree.box_max[node]), (
        f"point {x} routed to a leaf whose box does not contain it"
    )


def leaf_constraint_table(tree: MondrianTree) -> list[tuple[int, int, list[tuple[int, float, bool]]]]:
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


def depth_oracle(tree: MondrianTree, x) -> int:
    """Depth of the unique leaf whose constraint set admits x."""
    x = np.asarray(x, dtype=float)
    matches = []
    for leaf, depth, constraints in leaf_constraint_table(tree):
        ok = all((x[q] < p) == went_left for q, p, went_left in constraints)
        if ok:
            matches.append(depth)
    assert len(matches) == 1, f"{len(matches)} leaf regions claim the point"
    return matches[0]


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


def read_model(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata dict and writable node arrays of a saved model file,
    parsed by hand from the layout ``save_model`` documents."""
    raw = path.read_bytes()
    header_end = raw.index(b"\n")
    meta_end = raw.index(b"\n", header_end + 1)
    meta = json.loads(raw[header_end + 1 : meta_end])
    lead = (meta["num_trees"], meta["width"])
    arrays, offset = {}, meta_end + 1
    for name, dtype, shape, _ in node_fields(lead, meta["dim"]):
        count = math.prod(shape)
        arrays[name] = np.frombuffer(raw, dtype.newbyteorder("<"), count, offset).reshape(shape).copy()
        offset += count * dtype.itemsize
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
