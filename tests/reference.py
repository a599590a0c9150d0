"""Per-tree reference implementations the lockstep kernels are tested against.

``Forest.grow``, ``route`` and ``extend`` work on every tree of a forest
at once. Here one writable ``Tree`` is built (``fit_tree``), walked
(``walk``, ``path_length``) and extended (``extend_tree``) with plain Python
loops over its nodes, by the draw contracts in ``Forest``'s docstring
and without calling the kernels, their cut rule or their hash of a tree's
draws, so each must leave a tree bit-identical to the kernel's, draw count
included. ``view`` and ``views`` read an arena's trees into the same
struct, read-only, so that a reference tree and a kernel's tree compare
field by field. A reference tree counts the points below every node, while
an arena counts them at its leaves only, so a view fills each internal
slot with its children's count sum (``subtree_counts``).
"""

from __future__ import annotations

import numpy as np

from imondrian.tree import FIELD_NAMES, NO_NODE, _check_rates_finite, as_points, node_fields

# the links a tree holds beside the arena's node fields
_LINKS = ("left", "right", "parent")


class Tree:
    """One tree as parallel per-node arrays: the arena's node fields (split
    dimension/value/time, subtree population, and the smallest box of the
    points the node was built from, enlarged as streamed points pass
    through), and ``left``, ``right`` and ``parent`` links (``NO_NODE``
    where absent). ``key`` and ``draws`` are the tree's key and the number
    of uniforms it has drawn, as Python ints; ``size`` is its used slot
    count."""

    __slots__ = ("dim", "key", "draws", "root", "size") + _LINKS + FIELD_NAMES

    @property
    def capacity(self) -> int:
        return self.left.size


def links(arena, trees=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row-local int32 ``left``, ``right`` and ``parent`` links of the
    tree rows ``trees`` (an index or a slice, every row by default), read
    off ``child``, with ``NO_NODE`` where a node has no child or parent."""
    C = arena.capacity
    kids = arena.child.reshape(2, arena.num_trees, C)[:, trees] % C
    inner = np.nonzero(kids[0] != np.arange(C))
    left, right, parent = (np.full(kids.shape[1:], NO_NODE, dtype=np.int32) for _ in range(3))
    for field, side in zip((left, right), kids):
        field[inner] = side[inner]
        parent[inner[:-1] + (side[inner],)] = inner[-1]
    return left, right, parent


def subtree_counts(counts: np.ndarray, left: np.ndarray, right: np.ndarray, root: int) -> np.ndarray:
    """A copy of one tree's leaf ``counts`` in which each internal slot
    holds the sum of its children's, from the deepest level up; ``left``
    and ``right`` are its links (``NO_NODE`` at a leaf)."""
    counts = counts.copy()
    levels, level = [], np.array([root])
    while level.size:
        level = level[left[level] != NO_NODE]
        levels.append(level)
        level = np.concatenate((left[level], right[level]))
    for inner in reversed(levels):
        counts[inner] = counts[left[inner]] + counts[right[inner]]
    return counts


def view(arena, t: int) -> Tree:
    """Read-only view of tree t of ``arena`` as it is now: its node fields
    but ``population`` alias the arena's row, its links are read off
    ``child``, its ``population`` fills the internal slots of the arena's
    row by ``subtree_counts``, and its key and draw count are copied. Take a
    fresh view after extending."""
    tree = Tree()
    tree.dim = arena.dim
    tree.key, tree.draws = int(arena.key[t]), int(arena.draws[t])
    tree.root = int(arena.root[t])
    tree.size = int(arena.size[t])
    rows = dict(zip(_LINKS, links(arena, t)))
    rows.update((name, getattr(arena, name)[t]) for name in FIELD_NAMES)
    rows["population"] = subtree_counts(rows["population"], rows["left"], rows["right"], tree.root)
    for name, row in rows.items():
        row.flags.writeable = False
        setattr(tree, name, row)
    return tree


def views(forest) -> tuple[Tree, ...]:
    """``view`` of every tree of a forest, in tree order."""
    return tuple(view(forest, t) for t in range(forest.num_trees))


_MASK = (1 << 64) - 1


def uniform(key: int, counter: int) -> float:
    """Uniform number ``counter`` of the tree of key ``key``, on Python ints:
    SplitMix64's finaliser z of key + (counter + 1) * 0x9E3779B97F4A7C15
    (mod 2**64), as ((z >> 12) + 0.5) * 2**-52."""
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return ((z >> 12) + 0.5) * 2.0**-52


def _draw(tree: Tree) -> float:
    """The tree's next uniform; advances its draw count."""
    tree.draws += 1
    return uniform(tree.key, tree.draws - 1)


def _cut_rule(widths: np.ndarray, rate, lo: np.ndarray, hi: np.ndarray, draws: np.ndarray) -> tuple[int, float]:
    """The cut of one box: dimension q with probability in proportion to
    ``widths`` (which sum to ``rate``), the first whose cumulative width
    exceeds ``draws[0] * rate`` (the last positive one if roundoff passes
    them all), and value lo + (hi - lo) * draws[1] on it, moved to hi if it
    lands on lo."""
    q = int(np.searchsorted(np.cumsum(widths), draws[0] * rate, side="right"))
    if q >= widths.size or widths[q] <= 0.0:
        q = int(np.flatnonzero(widths > 0.0)[-1])
    p = lo[q] + (hi[q] - lo[q]) * draws[1]
    return q, hi[q] if p <= lo[q] else p


def _clock_time(tau, u: float, rate) -> float:
    """A node's split time from its parent's, ``tau``, its clock's uniform u
    and its rate: tau plus the waiting time -log1p(-u) / rate, or the next
    float above tau where that sum is not above it; inf where it overflows."""
    with np.errstate(over="ignore"):
        time = tau + -np.log1p(-u) / rate
    return time if time > tau else np.nextafter(tau, np.inf)


def fit_tree(points, key: int = 0) -> Tree:
    """The tree ``Forest.grow`` builds on ``points`` (no subsample) from
    ``key``, built here node by node, one level at a time, from a draw count
    of 0.

    At each level the open nodes, in slot order, take the min/max box (a
    zero bound as +0.0) and the count of their points. Those with two or
    more points and a positive rate (their box's row sum) split: each draws
    three uniforms in turn, a clock and the cut's dimension and value, and
    no more. A node's split time is its parent's plus its waiting time,
    rounded up to the next float above the parent's where they tie
    (``_clock_time``). A node whose split time is not finite stays a leaf;
    each other one cuts, and its left and right children take the next two
    slots with its points in their order. Raises ValueError on an empty
    point set and on a rate that overflows.
    """
    X = as_points(points)
    n, d = X.shape
    if not n:
        raise ValueError("a tree needs at least one point")
    tree = Tree()
    tree.dim, tree.key, tree.draws, tree.root, tree.size = d, key, 0, 0, 1
    links = [(name, np.dtype(np.int32), (2 * n - 1,), NO_NODE) for name in _LINKS]
    for name, dtype, shape, fill in node_fields((2 * n - 1,), d) + links:
        setattr(tree, name, np.full(shape, fill, dtype=dtype))
    level = [(0, np.arange(n), 0.0)]  # open nodes: slot, rows of X, parent time
    while level:
        for node, rows, _ in level:
            tree.box_min[node] = X[rows].min(axis=0) + 0.0  # a zero bound is +0.0
            tree.box_max[node] = X[rows].max(axis=0) + 0.0
            tree.population[node] = rows.size
        with np.errstate(over="ignore"):
            widths = np.array([tree.box_max[node] - tree.box_min[node] for node, _, _ in level])
            rates = widths.sum(axis=1)
        split = [i for i, (_, rows, _) in enumerate(level) if rows.size > 1 and rates[i] > 0.0]
        if not split:
            break
        if np.isinf(rates[split]).any():
            raise ValueError("a box's linear dimension overflows")
        draws = np.array([[_draw(tree) for _ in range(3)] for _ in split])
        opened = []
        for j, i in enumerate(split):
            node, rows, tau = level[i]
            time = _clock_time(tau, draws[j, 0], rates[i])
            if not np.isfinite(time):
                continue
            q, p = _cut_rule(widths[i], rates[i], tree.box_min[node], tree.box_max[node], draws[j, 1:])
            left, right = tree.size, tree.size + 1
            tree.size += 2
            tree.split_dim[node], tree.split_val[node], tree.split_time[node] = q, p, time
            tree.left[node], tree.right[node] = left, right
            tree.parent[left] = tree.parent[right] = node
            go_right = X[rows, q] >= p
            opened += [(left, rows[~go_right], time), (right, rows[go_right], time)]
        level = opened
    return tree


def _new_node(tree: Tree) -> int:
    """The next free slot of a writable tree; a full tree first doubles the
    node axis of every field and link, one array at a time."""
    if tree.size == tree.capacity:
        cap, new = tree.capacity, max(2 * tree.capacity, 8)
        links = [(name, np.dtype(np.int32), (new,), NO_NODE) for name in _LINKS]
        for name, dtype, shape, fill in node_fields((new,), tree.dim) + links:
            field = np.full(shape, fill, dtype=dtype)
            field[:cap] = getattr(tree, name)
            setattr(tree, name, field)
    tree.size += 1
    return tree.size - 1


def walk(tree: Tree, x) -> list[int]:
    """The nodes from the root to the leaf x routes to, by the construction
    rule: left iff x[q] < p."""
    path = [int(tree.root)]
    while tree.left[path[-1]] != NO_NODE:
        node = path[-1]
        go_left = x[tree.split_dim[node]] < tree.split_val[node]
        path.append(int(tree.left[node] if go_left else tree.right[node]))
    return path


def path_length(x, tree: Tree) -> int:
    """Number of edges from the root to the leaf the point routes to."""
    return len(walk(tree, as_points([x], tree.dim)[0])) - 1


def extend_tree(tree: Tree, x_new) -> Tree:
    """Insert one point, possibly splicing a new internal node mid-tree.

    The nodes on the point's routing path with a positive deviation rate
    (the point's total distance outside the node's box) are the candidates.
    Each carries an exponential clock of that rate started at its parent's
    split time (0 at the root), its firing time rounded as in
    ``_clock_time``. The first candidate, in path order, whose
    clock fires before its own split time gets a new internal node (cutting
    between box and point) spliced above it, with a fresh single-point leaf
    as sibling; every node passed before it has its box enlarged to admit
    the point and its population incremented. When no clock fires, which
    includes a point inside every box on its path, the whole path is
    passed and the point is absorbed into its leaf.

    Draws follow the contract in ``Forest``: with k > 0 candidates, the
    tree's next k uniforms are their clocks in path order and the two after
    them the cut's.

    The point's zero coordinates are read as +0.0, as the kernel reads them.
    Mutates in place and returns the tree. Raises ValueError, before
    drawing or writing anything, on a read-only tree view and on a point so
    far from the root's box that a deviation rate would overflow.
    """
    x = as_points([x_new], tree.dim)[0] + 0.0
    if not tree.left.flags.writeable:
        raise ValueError("tree is a read-only view of a forest; extend the forest instead")
    _check_rates_finite(tree.box_min[tree.root], tree.box_max[tree.root], x)
    path = walk(tree, x)
    dev = np.maximum(tree.box_min[path] - x, 0.0) + np.maximum(x - tree.box_max[path], 0.0)
    rates = dev.sum(axis=1)
    cand = np.flatnonzero(rates > 0.0).tolist()
    fired = len(path)
    if cand:
        u = np.array([_draw(tree) for _ in range(len(cand) + 2)])
        for i, j in enumerate(cand):
            time = _clock_time(0.0 if j == 0 else tree.split_time[path[j - 1]], u[i], rates[j])
            if time < tree.split_time[path[j]]:
                fired = j
                break
    for node, rate in zip(path[:fired], rates):
        if rate > 0.0:  # any other box already holds x, up to the sign of a zero bound
            tree.box_min[node] = np.minimum(tree.box_min[node], x)
            tree.box_max[node] = np.maximum(tree.box_max[node], x)
        tree.population[node] += 1
    if fired < len(path):
        _splice_above(tree, path[fired], x, time, dev[fired], rates[fired], u[-2:])
    return tree


def _splice_above(
    tree: Tree,
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
    over = x > tree.box_max[node]
    lo, hi = np.where(over, tree.box_max[node], x), np.where(over, x, tree.box_min[node])
    q, p = _cut_rule(rates, rate, lo, hi, draws)
    above = over[q]

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
