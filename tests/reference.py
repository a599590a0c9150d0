"""Per-tree reference implementations the lockstep kernels are tested against.

``ForestArena.grow``, ``route`` and ``extend`` work on every tree of a forest
at once. Here one writable ``MondrianTree`` is built (``fit_tree``), walked
(``walk``, ``path_length``) and extended (``extend_tree``) with plain Python
loops over its nodes; ``extend_tree`` draws by the arena's extension
contract, so it must leave a tree bit-identical to ``ForestArena.extend``.
"""

from __future__ import annotations

import copy

import numpy as np

from imondrian.tree import NO_NODE, ForestArena, MondrianTree, _check_rates_finite, as_point, as_points, node_fields


def _as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def fit_tree(points, rng: np.random.Generator | int | None = None) -> MondrianTree:
    """The one-tree case of ``ForestArena.grow``: the tree grown on
    ``points`` from ``rng``, as a writable copy that owns the generator
    itself rather than a copy of it. Raises what ``grow`` raises."""
    gen = _as_generator(rng)
    view = ForestArena.grow(as_points(points), [gen]).tree(0)
    return copy.deepcopy(view, {id(gen): gen})


def _new_node(tree: MondrianTree) -> int:
    """The next free slot of a writable tree; a full tree first doubles the
    node axis of every field and link, one array at a time."""
    if tree.size == tree.capacity:
        cap, new = tree.capacity, max(2 * tree.capacity, 8)
        links = [(name, np.dtype(np.int32), (new,), NO_NODE) for name in ("left", "right", "parent")]
        for name, dtype, shape, fill in node_fields((new,), tree.dim) + links:
            field = np.full(shape, fill, dtype=dtype)
            field[:cap] = getattr(tree, name)
            setattr(tree, name, field)
    tree.size += 1
    return tree.size - 1


def walk(tree: MondrianTree, x) -> list[int]:
    """The nodes from the root to the leaf x routes to, by the construction
    rule: left iff x[q] < p."""
    path = [int(tree.root)]
    while tree.left[path[-1]] != NO_NODE:
        node = path[-1]
        go_left = x[tree.split_dim[node]] < tree.split_val[node]
        path.append(int(tree.left[node] if go_left else tree.right[node]))
    return path


def path_length(x, tree: MondrianTree) -> int:
    """Number of edges from the root to the leaf the point routes to."""
    return len(walk(tree, as_point(x, tree.dim))) - 1


def extend_tree(tree: MondrianTree, x_new, rng: np.random.Generator | int | None = None) -> MondrianTree:
    """Insert one point, possibly splicing a new internal node mid-tree.

    The nodes on the point's routing path with a positive deviation rate
    (the point's total distance outside the node's box) are the candidates.
    Each carries an exponential clock of that rate started at its parent's
    split time (0 at the root). The first candidate, in path order, whose
    clock fires before its own split time gets a new internal node (cutting
    between box and point) spliced above it, with a fresh single-point leaf
    as sibling; every node passed before it has its box enlarged to admit
    the point and its population incremented. When no clock fires, which
    includes a point inside every box on its path, the whole path is
    passed and the point is absorbed into its leaf.

    Draws follow the contract in ``ForestArena``: with k > 0 candidates,
    one call ``random(k + 2)`` holding the k clocks in path order and then
    the cut's two uniforms, and scalar redraws of any clock uniform of 0.

    Uses the tree's own generator unless ``rng`` is given. Mutates in place
    and returns the tree. Raises ValueError, before drawing or writing
    anything, on a read-only tree view and on a point so far from the root's
    box that a deviation rate would overflow.
    """
    x = as_point(x_new, tree.dim)
    gen = tree.rng if rng is None else _as_generator(rng)
    if not tree.left.flags.writeable:
        raise ValueError("tree is a read-only view of a forest; extend the forest instead")
    _check_rates_finite(tree.box_min[tree.root], tree.box_max[tree.root], x)
    path = walk(tree, x)
    dev = np.maximum(tree.box_min[path] - x, 0.0) + np.maximum(x - tree.box_max[path], 0.0)
    rates = dev.sum(axis=1)
    cand = np.flatnonzero(rates > 0.0).tolist()
    fired, time = len(path), None
    if cand:
        u = gen.random(len(cand) + 2)
        for i in range(len(cand)):
            while u[i] == 0.0:
                u[i] = gen.random()
        for i, j in enumerate(cand):
            tau = 0.0 if j == 0 else tree.split_time[path[j - 1]]
            with np.errstate(over="ignore"):
                e = -np.log1p(-u[i]) / rates[j]
            if tau + e < tree.split_time[path[j]]:
                fired, time = j, tau + e
                break
    for node in path[:fired]:
        tree.box_min[node] = np.minimum(tree.box_min[node], x)
        tree.box_max[node] = np.maximum(tree.box_max[node], x)
        tree.population[node] += 1
    if time is not None:
        _splice_above(tree, path[fired], x, time, dev[fired], rates[fired], u[-2:])
    return tree


def _splice_above(
    tree: MondrianTree,
    node: int,
    x: np.ndarray,
    time: float,
    rates: np.ndarray,
    rate: float,
    draws: np.ndarray,
) -> None:
    """Splice a new internal node of split time ``time`` above ``node``,
    with a new leaf for x as its other child; ``draws`` are the uniforms
    that pick the cut's dimension and value."""
    cuts = np.cumsum(rates)
    q = int(np.searchsorted(cuts, draws[0] * rate, side="right"))
    if q >= rates.size or rates[q] <= 0.0:
        q = int(np.flatnonzero(rates > 0.0)[-1])
    above = x[q] > tree.box_max[node, q]
    if above:
        lo = float(tree.box_max[node, q])
        hi = float(x[q])
    else:
        lo = float(x[q])
        hi = float(tree.box_min[node, q])
    p = lo + (hi - lo) * float(draws[1])
    if p <= lo:
        # a cut exactly on the interval's lower end would misroute one side
        p = hi

    old_parent = int(tree.parent[node])
    internal = _new_node(tree)
    leaf = _new_node(tree)

    tree.box_min[leaf] = x
    tree.box_max[leaf] = x
    tree.population[leaf] = 1
    tree.parent[leaf] = internal

    tree.split_dim[internal] = q
    tree.split_val[internal] = p
    tree.split_time[internal] = time
    tree.box_min[internal] = np.minimum(tree.box_min[node], x)
    tree.box_max[internal] = np.maximum(tree.box_max[node], x)
    tree.population[internal] = tree.population[node] + 1
    tree.parent[internal] = old_parent
    if above:
        tree.left[internal] = node
        tree.right[internal] = leaf
    else:
        tree.left[internal] = leaf
        tree.right[internal] = node
    tree.parent[node] = internal

    if old_parent == NO_NODE:
        tree.root = internal
    elif tree.left[old_parent] == node:
        tree.left[old_parent] = internal
    else:
        tree.right[old_parent] = internal
