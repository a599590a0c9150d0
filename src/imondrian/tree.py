"""Randomized hierarchical binary partition trees with streaming insertion.

Each tree recursively cuts the smallest axis-aligned box around the points
in a node. A cut carries a *split time* drawn from an exponential clock
whose rate is the box's linear dimension (the sum of its side lengths).
Split times increase from root to leaf, and that ordering is what makes
in-place insertion possible: a streamed point lying outside a node's box
can win the race against the node's recorded time and splice a new internal
node *above* it, instead of only growing the tree at the leaves.

Nodes live in a growable structure-of-arrays arena addressed by integer
index; ``NO_NODE`` (-1) marks an absent link. A node is a leaf iff it has
no left child, and leaves always carry an infinite split time.

A forest packs all of its trees into one ``ForestArena``, whose kernels walk
every tree in lockstep, one depth level per numpy pass. The build is one of
them: every open node of every tree at a depth gets its box from a segment
min/max over the node's points, its split time and cut from its tree's own
generator, and its children's points from a stable partition, so slots are
numbered breadth first and ``fit_tree`` is the one-tree case. Routing and
extension descend through a child table derived from the links, in which a
leaf points to itself, so one gather per level moves every lane and a lane
that reached its leaf stays there. The scalar ``path_length`` and
``extend_tree`` on a single ``MondrianTree`` stay as the reference the
routing and extension kernels are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoxError, DimensionMismatchError

NO_NODE = -1

# per-node fields: (name, dtype, value of an unused slot); boxes add a dim
# axis and come first, so growing one field at a time peaks lowest
_FIELDS = (
    ("box_min", np.float64, 0.0),
    ("box_max", np.float64, 0.0),
    ("split_dim", np.int32, -1),
    ("split_val", np.float64, 0.0),
    ("split_time", np.float64, np.inf),
    ("left", np.int32, NO_NODE),
    ("right", np.int32, NO_NODE),
    ("parent", np.int32, NO_NODE),
    ("population", np.int64, 0),
)
FIELD_NAMES = tuple(name for name, _, _ in _FIELDS)

# (tree, point) lanes per numpy pass of ForestArena.route and ForestArena.grow;
# passes of 2^14 lanes kept the working set in cache and routed fastest when
# measured, and they bound the build's working set
ROUTE_LANES = 1 << 14


def node_fields(lead: tuple[int, ...], dim: int) -> list[tuple[str, np.dtype, tuple[int, ...], object]]:
    """(name, dtype, shape, unused-slot value) of every node field over the
    leading axes ``lead``, in ``_FIELDS`` order; boxes add a ``dim`` axis."""
    return [
        (name, np.dtype(dtype), lead + ((dim,) if name.startswith("box") else ()), fill)
        for name, dtype, fill in _FIELDS
    ]


def _grow_fields(owner, axis: int) -> None:
    """Double the node axis of every field, one field at a time."""
    for name, _, fill in _FIELDS:
        old = getattr(owner, name)
        cap = old.shape[axis]
        shape = list(old.shape)
        shape[axis] = max(2 * cap, 8)
        new = np.full(shape, fill, dtype=old.dtype)
        new[(slice(None),) * axis + (slice(0, cap),)] = old
        setattr(owner, name, new)


def _as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate a single point: 1-D, finite, optionally of a fixed dimension."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a single point, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(
            f"point has {arr.size} coordinates, expected {dim}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Validate a point set as a float (n, d) array.

    A 1-D sequence is treated as n one-dimensional points. Ragged input
    raises DimensionMismatchError; non-finite values raise ValueError.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatchError(
            "points do not share a single dimensionality"
        ) from exc
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, d) point set, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("point set must be nonempty")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"points have dimension {arr.shape[1]}, expected {dim}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box given by per-dimension lower and upper bounds."""

    dim_min: np.ndarray
    dim_max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.dim_min, dtype=float)
        hi = np.asarray(self.dim_max, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatchError("bounds must be 1-D vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("dim_min must not exceed dim_max")
        object.__setattr__(self, "dim_min", lo)
        object.__setattr__(self, "dim_max", hi)

    @property
    def dim(self) -> int:
        return self.dim_min.size

    @property
    def linear_dimension(self) -> float:
        """Sum of side lengths; the rate of the split-time clock."""
        return float((self.dim_max - self.dim_min).sum())

    def contains(self, x) -> bool:
        x = as_point(x, self.dim)
        return bool(np.all(x >= self.dim_min) and np.all(x <= self.dim_max))


def smallest_block(points) -> BoundingBox:
    """Tightest axis-aligned box around a nonempty point set."""
    pts = as_points(points)
    return BoundingBox(pts.min(axis=0), pts.max(axis=0))


def _cut(lo: np.ndarray, hi: np.ndarray, widths: np.ndarray, rate: np.ndarray, u: np.ndarray):
    """The cut rule for k boxes at once: split dimensions q and values p.

    ``widths`` (k, d) are the lengths the dimension is drawn in proportion
    to, ``rate`` their positive row sums, and ``lo``/``hi`` (k, d) the ends of
    the interval each dimension is cut in; ``u`` holds two uniforms on
    [0, 1) per box. q is the first dimension whose cumulative width exceeds
    ``u[:, 0] * rate``, and p = lo + (hi - lo) * u[:, 1] on dimension q.
    """
    k, d = widths.shape
    rows = np.arange(k)
    q = (np.cumsum(widths, axis=1) <= (u[:, 0] * rate)[:, None]).sum(axis=1)
    # float roundoff pushed u onto/past a boundary; take the last usable dim
    last = d - 1 - np.argmax(widths[:, ::-1] > 0.0, axis=1)
    q = np.where((q >= d) | (widths[rows, np.minimum(q, d - 1)] <= 0.0), last, q)
    lo, hi = lo[rows, q], hi[rows, q]
    p = lo + (hi - lo) * u[:, 1]
    # a cut exactly on the interval's lower end would leave one side empty
    return q, np.where(p <= lo, hi, p)


# a box this large would make the split clock fire at time 0 forever
_OVERFLOW = "box is too large: its linear dimension overflows to infinity"


def sample_split(bbox: BoundingBox, rng: np.random.Generator | int | None = None):
    """Sample a cut for a box: waiting time, dimension, and cut value.

    The waiting time is Exp(1) / rate with rate the linear dimension, the
    dimension is drawn proportionally to side lengths, and the value
    uniformly within the chosen side, by the same rule the tree build uses.
    Raises DegenerateBoxError when every side has zero length and
    ValueError when the linear dimension overflows.
    """
    gen = _as_generator(rng)
    with np.errstate(over="ignore"):
        widths = bbox.dim_max - bbox.dim_min
        rate = float(widths.sum())
    if rate <= 0.0:
        raise DegenerateBoxError("box has zero linear dimension; nothing to split")
    if rate == np.inf:
        raise ValueError(_OVERFLOW)
    e = gen.standard_exponential() / rate
    while e == 0.0:
        e = gen.standard_exponential() / rate
    q, p = _cut(bbox.dim_min[None], bbox.dim_max[None], widths[None], np.array([rate]), gen.random((1, 2)))
    return float(e), int(q[0]), float(p[0])


class MondrianTree:
    """Arena-backed partition tree over d-dimensional points.

    Parallel arrays store one field per node: split dimension/value/time,
    child and parent links, subtree population, and the smallest box of the
    points the node was built from (enlarged as streamed points pass
    through). The tree owns its random generator so that a (seed, data)
    pair fully determines every structure it will ever grow into. Trees come
    from ``fit_tree`` or as views of a ``ForestArena`` row.
    """

    __slots__ = (
        "dim",
        "rng",
        "root",
        "size",
        "split_dim",
        "split_val",
        "split_time",
        "left",
        "right",
        "parent",
        "population",
        "box_min",
        "box_max",
    )

    # -- arena ---------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.left.size

    def _new_node(self) -> int:
        if self.size == self.capacity:
            _grow_fields(self, axis=0)
        idx = self.size
        self.size += 1
        return idx

    # -- views ---------------------------------------------------------------

    def is_leaf(self, node: int) -> bool:
        return self.left[node] == NO_NODE

    @property
    def node_count(self) -> int:
        return self.size

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.left[: self.size] == NO_NODE))

    @property
    def internal_count(self) -> int:
        return self.size - self.leaf_count


def fit_tree(points, rng: np.random.Generator | int | None = None) -> MondrianTree:
    """Build a tree on a nonempty point set by recursive random cuts.

    The one-tree case of ``ForestArena.grow``: a node holding more than one
    point and a box with positive linear dimension draws a split time (the
    parent's time plus Exp(1) / linear dimension; 0 is the root's parent
    time) and a cut (q, p), and its points are partitioned into
    {x : x[q] < p} and {x : x[q] >= p}. Anything else terminates as a leaf
    (so a block of identical points becomes a leaf carrying the whole
    block's population). Returns a writable tree owning the generator.
    Raises ValueError when the points' box is so large that its linear
    dimension overflows.
    """
    X = as_points(points)
    arena = ForestArena.grow(X, [_as_generator(rng)])
    return arena._view(0)


def path_length(x, tree: MondrianTree) -> int:
    """Number of edges from the root to the leaf the point routes to.

    Routing matches the construction rule: left iff x[q] < p.
    """
    pt = as_point(x, tree.dim)
    node = tree.root
    edges = 0
    while tree.left[node] != NO_NODE:
        q = tree.split_dim[node]
        if pt[q] < tree.split_val[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
        edges += 1
    return edges


def path_lengths(tree: MondrianTree, points) -> np.ndarray:
    """Vectorized ``path_length`` for an (n, d) batch; returns int64 depths.

    All points descend one level per pass, so the work is proportional to
    the total routed path length rather than n * node_count.
    """
    X = as_points(points, tree.dim)
    n = X.shape[0]
    cur = np.full(n, tree.root, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    alive = np.flatnonzero(tree.left[cur] != NO_NODE)
    while alive.size:
        nodes = cur[alive]
        go_left = X[alive, tree.split_dim[nodes]] < tree.split_val[nodes]
        cur[alive] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        depth[alive] += 1
        alive = alive[tree.left[cur[alive]] != NO_NODE]
    return depth


def extend_tree(tree: MondrianTree, x_new, rng: np.random.Generator | int | None = None) -> MondrianTree:
    """Insert one point, possibly splicing a new internal node mid-tree.

    Descending from the root, each node draws a waiting time from an
    exponential clock whose rate is the point's total deviation from the
    node's box. If the parent's time plus that draw beats the node's own
    split time, a new internal node (cutting between box and point) is
    spliced above it with a fresh single-point leaf as sibling; otherwise
    the node's box is enlarged to admit the point, its population is
    incremented, and the descent continues along the routing rule. A point
    inside the box has rate zero - the clock never fires - so descent
    continues, and reaching a leaf that already contains the point absorbs
    it (population bump only).

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
    node = tree.root
    tau = 0.0
    while True:
        dev_lower = np.maximum(tree.box_min[node] - x, 0.0)
        dev_upper = np.maximum(x - tree.box_max[node], 0.0)
        rates = dev_lower + dev_upper
        rate = float(rates.sum())
        if rate > 0.0:
            e = gen.exponential(1.0 / rate)
            while e == 0.0:
                e = gen.exponential(1.0 / rate)
        else:
            e = np.inf
        if tau + e < tree.split_time[node]:
            _splice_above(tree, node, x, tau + e, rates, rate, gen)
            return tree
        tree.box_min[node] = np.minimum(tree.box_min[node], x)
        tree.box_max[node] = np.maximum(tree.box_max[node], x)
        tree.population[node] += 1
        if tree.left[node] == NO_NODE:
            return tree  # duplicate of the leaf's point: absorbed
        tau = float(tree.split_time[node])
        if x[tree.split_dim[node]] < tree.split_val[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])


def _check_rates_finite(root_min: np.ndarray, root_max: np.ndarray, x: np.ndarray) -> None:
    """Raise ValueError unless the root box enlarged to admit x has a finite
    linear dimension. Every box on x's path lies inside that enlarged box,
    so this bounds x's deviation rate at every node it will visit."""
    with np.errstate(over="ignore"):
        span = (np.maximum(root_max, x) - np.minimum(root_min, x)).sum(axis=-1)
    if not np.isfinite(span).all():
        raise ValueError("point is too far from the tree's box: its deviation rate overflows")


def _splice_above(
    tree: MondrianTree,
    node: int,
    x: np.ndarray,
    time: float,
    rates: np.ndarray,
    rate: float,
    gen: np.random.Generator,
) -> None:
    cuts = np.cumsum(rates)
    u = gen.random() * rate
    q = int(np.searchsorted(cuts, u, side="right"))
    if q >= rates.size or rates[q] <= 0.0:
        q = int(np.flatnonzero(rates > 0.0)[-1])
    above = x[q] > tree.box_max[node, q]
    if above:
        lo = float(tree.box_max[node, q])
        hi = float(x[q])
    else:
        lo = float(x[q])
        hi = float(tree.box_min[node, q])
    p = float(gen.uniform(lo, hi))
    if p <= lo:
        # a cut exactly on the interval's lower end would misroute one side
        p = hi

    old_parent = int(tree.parent[node])
    internal = tree._new_node()
    leaf = tree._new_node()

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


def structurally_equal(a: MondrianTree, b: MondrianTree) -> bool:
    """Exact structural equality: same shape, links, populations, and
    bit-identical split values, times, and boxes."""
    if a.dim != b.dim or a.size != b.size or a.root != b.root:
        return False
    n = a.size
    return all(np.array_equal(getattr(a, f)[:n], getattr(b, f)[:n]) for f in FIELD_NAMES)


class ForestArena:
    """Every tree of a forest packed into one structure-of-arrays arena.

    Each node field has shape ``(num_trees, capacity)`` (boxes add a ``dim``
    axis); row t holds tree t, with int32 links local to that row. ``root``,
    ``size`` and ``rngs`` hold each tree's root, used slot count and own
    generator. Slots past a tree's size keep the unused-slot values, and when
    a row fills, the capacity of every row doubles.

    The kernels move all trees down one depth level per numpy step: ``grow``
    builds the trees, ``route`` sums depths for a batch of points, and
    ``extend`` inserts one point into every tree.

    ``grow`` builds every node of a depth in one pass over the trees of a
    group. Tree t draws only from its own generator: first its subsample,
    then, level by level, the standard exponentials of its open nodes in
    slot order, then two uniforms per such node (cut dimension and value),
    then a fresh exponential for any waiting time that rounded to 0. So a
    tree depends on its generator and the data alone, not on the other
    trees or on how trees are grouped; slots are numbered breadth first.

    ``extend`` draws from each tree's generator in the same order as
    ``extend_tree``, so a tree's result is bit-identical to the per-tree
    reference. Waiting times use the Exp(1) / rate form of the Mondrian
    process clock (Roy & Teh 2008), as in Mondrian-forest extension
    (Lakshminarayanan, Roy & Teh 2014).

    ``route`` and ``extend`` descend through ``child``, an int64 table of
    length 2 * T * C (T trees, capacity C). Entry ``side * T * C + g`` holds
    the flat index ``t * C + slot`` of flat node g's left (side 0) or right
    (side 1) child; a leaf or an unused slot holds g itself on both sides,
    so a lane that reaches its leaf parks there. One level is then: gather
    the split dimension and value, compare (right iff x[q] >= p), gather
    ``child[go * T * C + node]``. A parked lane's comparison is ignored, so
    a leaf's ``split_dim`` of -1 may read any valid coordinate.

    ``left``, ``right`` and ``NO_NODE`` stay the source of truth for tree
    views, invariants and the model file, and ``child`` is never saved. The
    arena's own writers keep it current: the constructor makes every slot
    a self loop, ``_grow_levels`` writes both entries of each node it
    splits, ``_splice`` writes the new internal node, the new leaf's self
    loop and the old parent's entry, ``extend`` calls ``_relink`` after the
    capacity doubles, and ``data_io`` calls it after loading the fields.
    It is kept current rather than rebuilt per call because a rebuild of a
    100-tree, 1022-slot stream forest takes about 1 ms on a 2-core VM, two
    to three times a one-point ``score_all``, which every arrival makes.
    Writes through a writable ``MondrianTree`` view (such as the one
    ``fit_tree`` returns, which ``extend_tree`` may then grow) do not
    update it; nothing routes the arena behind such a view.
    """

    def __init__(self, num_trees: int, dim: int, capacity: int):
        self.dim = int(dim)
        self.root = np.full(num_trees, NO_NODE, dtype=np.int64)
        self.size = np.zeros(num_trees, dtype=np.int64)
        self.rngs: list[np.random.Generator | None] = [None] * num_trees
        for name, dtype, shape, fill in node_fields((num_trees, max(int(capacity), 1)), self.dim):
            setattr(self, name, np.full(shape, fill, dtype=dtype))
        self._relink()

    def _relink(self) -> None:
        """Rebuild ``child`` from ``left`` and ``right``: flat child indices
        of internal nodes, self loops for leaves and unused slots."""
        T, C = self.left.shape
        flat = np.arange(T * C)
        inner = np.flatnonzero(self.left.ravel() != NO_NODE)
        base = flat[inner] - flat[inner] % C
        child = np.concatenate((flat, flat))
        child[inner] = base + self.left.ravel()[inner]
        child[T * C + inner] = base + self.right.ravel()[inner]
        self.child = child

    @classmethod
    def grow(cls, X: np.ndarray, rngs: list[np.random.Generator], sample_size: int | None = None) -> ForestArena:
        """Build one tree per generator on the validated (n, d) array ``X``.

        Each tree is built on ``sample_size`` rows drawn without replacement
        by its own generator, or on all of ``X`` when ``sample_size`` is
        None, and takes ownership of that generator. Trees are built in
        groups of about ROUTE_LANES (tree, point) lanes, so memory stays flat.
        Raises ValueError when a box's linear dimension overflows.
        """
        n, d = X.shape
        m = n if sample_size is None else sample_size
        arena = cls(len(rngs), d, 2 * m - 1)
        arena.rngs = list(rngs)
        per_group = max(ROUTE_LANES // m, 1)
        for t0 in range(0, len(rngs), per_group):
            trees = np.arange(t0, min(t0 + per_group, len(rngs)))
            if sample_size is None:
                pts = np.tile(X, (trees.size, 1))
            else:
                pts = X[np.concatenate([arena.rngs[t].choice(n, size=m, replace=False) for t in trees])]
            arena._grow_levels(trees, pts, m)
        return arena

    def _grow_levels(self, trees: np.ndarray, pts: np.ndarray, m: int) -> None:
        """Build trees ``trees`` (ascending) on ``pts``, whose rows are each
        tree's m points in turn.

        Each open node owns a contiguous segment of ``pts``; segments are in
        (tree, slot) order. One pass per depth level:
        1. boxes and populations of the open nodes, by segment min/max;
        2. nodes with one point or a zero-width box stay leaves and their
           points drop out; the rest draw split times and cuts;
        3. each tree's children take the next slots in order, and a stable
           partition makes each node's points the segments of its children.
        """
        C, TC = self.capacity, self.left.size
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        left, right, parent = self._flat("left"), self._flat("right"), self._flat("parent")
        self.root[trees] = 0
        self.size[trees] = 1
        seg_tree = trees  # the open nodes: tree, local slot, point count, parent time
        seg_node = np.zeros(trees.size, dtype=np.int64)
        seg_len = np.full(trees.size, m)
        seg_tau = np.zeros(trees.size)
        while seg_len.size:
            # 1. boxes of the open nodes
            flat = seg_tree * C + seg_node
            starts = np.cumsum(seg_len) - seg_len
            lo = np.minimum.reduceat(pts, starts, axis=0)
            hi = np.maximum.reduceat(pts, starts, axis=0)
            box_min[flat] = lo
            box_max[flat] = hi
            self._flat("population")[flat] = seg_len
            with np.errstate(over="ignore"):
                widths = hi - lo
                rate = widths.sum(axis=1)
            # 2. split the nodes with two or more points and a positive rate
            split = np.flatnonzero((seg_len > 1) & (rate > 0.0))
            if not split.size:
                break
            if rate[split].max() == np.inf:
                raise ValueError(_OVERFLOW)
            t, node, rate, k = seg_tree[split], seg_node[split], rate[split], split.size
            first = np.flatnonzero(np.diff(t, prepend=-1))  # each tree's first split
            count = np.diff(first, append=k)
            e, u = np.empty(k), np.empty((k, 2))
            for tree, a, b in zip(t[first].tolist(), first.tolist(), (first + count).tolist()):
                gen = self.rngs[tree]
                gen.standard_exponential(out=e[a:b])
                gen.random(out=u[a:b])
            e /= rate
            for j in np.flatnonzero(e == 0.0).tolist():
                while e[j] == 0.0:
                    e[j] = self.rngs[t[j]].standard_exponential() / rate[j]
            time = seg_tau[split] + e
            q, p = _cut(lo[split], hi[split], widths[split], rate, u)
            flat = flat[split]
            self._flat("split_dim")[flat] = q
            self._flat("split_val")[flat] = p
            self._flat("split_time")[flat] = time
            # 3. children in the next slots of each tree, left before right
            kid_l = self.size[t] + 2 * (np.arange(k) - np.repeat(first, count))
            self.size[t[first]] += 2 * count
            left[flat] = kid_l
            right[flat] = kid_l + 1
            self.child[flat] = t * C + kid_l
            self.child[TC + flat] = t * C + kid_l + 1
            parent[t * C + kid_l] = node
            parent[t * C + kid_l + 1] = node
            # the stable partition: each split node's points, left side first
            rank = np.full(seg_len.size, -1)
            rank[split] = np.arange(k)
            lane_seg = np.repeat(rank, seg_len)
            keep = np.flatnonzero(lane_seg >= 0)
            lane_seg = lane_seg[keep]
            go_right = pts[keep, q[lane_seg]] >= p[lane_seg]
            pts = pts[keep[np.argsort(2 * lane_seg + go_right, kind="stable")]]
            n_left = np.bincount(lane_seg[~go_right], minlength=k)
            seg_len = np.column_stack((n_left, seg_len[split] - n_left)).ravel()
            seg_tree = np.repeat(t, 2)
            seg_node = np.column_stack((kid_l, kid_l + 1)).ravel()
            seg_tau = np.repeat(time, 2)

    @property
    def num_trees(self) -> int:
        return self.root.size

    @property
    def capacity(self) -> int:
        return self.left.shape[1]

    def tree(self, t: int) -> MondrianTree:
        """Read-only view of tree t as it is now: its arrays alias the arena
        row and cannot be written. Take a fresh view after extending."""
        view = self._view(t)
        for name in FIELD_NAMES:
            getattr(view, name).flags.writeable = False
        return view

    def _view(self, t: int) -> MondrianTree:
        """Tree t as a MondrianTree whose arrays alias the arena row."""
        view = MondrianTree()
        view.dim = self.dim
        view.rng = self.rngs[t]
        view.root = int(self.root[t])
        view.size = int(self.size[t])
        for name in FIELD_NAMES:
            setattr(view, name, getattr(self, name)[t])
        return view

    def _flat(self, name: str) -> np.ndarray:
        """A field with the tree and node axes merged: index ``t * capacity + node``."""
        arr = getattr(self, name)
        return arr.reshape((-1,) + arr.shape[2:])

    def route(self, X: np.ndarray) -> np.ndarray:
        """Sum over trees of each point's root-to-leaf edge count (int64).

        ``X`` is a validated (n, dim) array. Lanes are (tree, point) pairs
        in tree-major order, routed about ROUTE_LANES at a time so memory
        stays flat. Each level is one step through ``child``; a lane's depth
        is its number of moves, lanes are compacted once at least half of
        them have parked on their leaves, and the walk ends when none moved.
        """
        n, d = X.shape
        C, TC = self.capacity, self.left.size
        flat_x = np.ascontiguousarray(X).ravel()
        split_dim, split_val = self._flat("split_dim"), self._flat("split_val")
        depth_sum = np.zeros(n, dtype=np.int64)
        block = min(n, ROUTE_LANES)
        trees_per_pass = max(ROUTE_LANES // block, 1)
        for p0 in range(0, n, block):
            offsets = np.arange(p0, min(p0 + block, n)) * d  # row starts in flat_x
            for t0 in range(0, self.num_trees, trees_per_pass):
                trees = np.arange(t0, min(t0 + trees_per_pass, self.num_trees))
                node = np.repeat(trees * C + self.root[trees], offsets.size)
                xrow = np.tile(offsets, trees.size)
                lane = np.arange(node.size)
                depth = np.zeros(node.size, dtype=np.int64)
                out = np.empty_like(depth)
                while True:
                    go = flat_x[xrow + split_dim[node]] >= split_val[node]
                    nxt = self.child[go * TC + node]
                    moved = nxt != node
                    live = np.count_nonzero(moved)
                    if not live:
                        break
                    node = nxt
                    depth += moved
                    if 2 * live <= moved.size:
                        parked = ~moved
                        out[lane[parked]] = depth[parked]
                        lane, node, xrow, depth = lane[moved], node[moved], xrow[moved], depth[moved]
                out[lane] = depth
                depth_sum[p0 : p0 + offsets.size] += out.reshape(trees.size, -1).sum(axis=0)
        return depth_sum

    def extend(self, x: np.ndarray) -> None:
        """Insert one validated point into every tree, as ``extend_tree`` would.

        1. Route x down every tree and record the path nodes.
        2. Compute every deviation rate on those paths at once, then let
           each tree draw its waiting times, in path order, from its own
           generator until its clock fires (tau + e below the node's time).
        3. Enlarge the boxes and bump the populations of the nodes passed
           before the clock fired, and splice a new internal node and leaf
           above the node where it fired.

        Raises ValueError before any tree is touched if a rate would
        overflow in some tree.
        """
        path_tree, path_node, dev, rate, fired, fire_time, draws = self._race(x)
        # 3. grow before taking views of the fields, so that each old field
        # is freed as soon as its replacement is filled
        if fired.size and self.size[path_tree[fired]].max() + 2 > self.capacity:
            _grow_fields(self, axis=1)  # a doubled row always has room for two more
            self._relink()
        path_flat = path_tree * self.capacity + path_node
        stop = np.full(self.num_trees, path_tree.size)
        stop[path_tree[fired]] = fired
        passed = path_flat[np.arange(path_tree.size) < stop[path_tree]]
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        box_min[passed] = np.minimum(box_min[passed], x)
        box_max[passed] = np.maximum(box_max[passed], x)
        self._flat("population")[passed] += 1
        if fired.size:
            self._splice(path_tree[fired], path_node[fired], x, fire_time, dev[fired], rate[fired], draws)

    def _race(self, x: np.ndarray):
        """Phases 1 and 2 of ``extend``: the path of x in every tree as
        tree-major (tree, local node) pairs, the deviations and rates along
        it, and for each tree whose clock fired its path position, firing
        time and the two uniforms its splice draws next."""
        T, C = self.left.shape
        trees = np.arange(T)
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        root = trees * C + self.root
        _check_rates_finite(box_min[root], box_max[root], x)

        # 1. path nodes, level by level through ``child``, then tree-major
        split_dim, split_val = self._flat("split_dim"), self._flat("split_val")
        levels = [root]
        flat = root
        while True:
            nxt = self.child[(x[split_dim[flat]] >= split_val[flat]) * (T * C) + flat]
            moved = nxt != flat
            if not moved.any():
                break
            flat = nxt[moved]
            levels.append(flat)
        path_flat = np.concatenate(levels)
        path_tree = path_flat // C
        order = np.argsort(path_tree, kind="stable")
        path_tree, path_flat = path_tree[order], path_flat[order]
        path_node = path_flat - path_tree * C

        # 2. rates and parent times on every path node, then per-tree clocks
        dev = np.maximum(box_min[path_flat] - x, 0.0) + np.maximum(x - box_max[path_flat], 0.0)
        rate = dev.sum(axis=1)
        node_time = self._flat("split_time")[path_flat]
        tau = np.empty_like(node_time)
        tau[0] = 0.0
        tau[1:] = node_time[:-1]
        tau[np.flatnonzero(np.diff(path_tree)) + 1] = 0.0  # roots have parent time 0
        cand = np.flatnonzero(rate > 0.0)
        cand_tree = path_tree[cand]
        starts = np.flatnonzero(np.diff(cand_tree, prepend=-1))
        ends = np.append(starts[1:], cand.size)
        scale = (1.0 / rate[cand]).tolist()
        cand_tau = tau[cand].tolist()
        cand_time = node_time[cand].tolist()
        fired, fire_time, draws = [], [], []
        for t, lo, hi in zip(cand_tree[starts].tolist(), starts.tolist(), ends.tolist()):
            gen = self.rngs[t]
            for j in range(lo, hi):
                e = scale[j] * gen.standard_exponential()
                while e == 0.0:
                    e = scale[j] * gen.standard_exponential()
                if cand_tau[j] + e < cand_time[j]:
                    fired.append(cand[j])
                    fire_time.append(cand_tau[j] + e)
                    draws.append((gen.random(), gen.random()))  # cut dim, cut value
                    break
        return (path_tree, path_node, dev, rate, np.asarray(fired, dtype=np.int64),
                np.asarray(fire_time), np.asarray(draws).reshape(-1, 2))

    def _splice(self, t, node, x, time, rates, rate, draws) -> None:
        """Vectorized ``_splice_above`` for trees t (each once) at local nodes."""
        C, TC = self.capacity, self.left.size
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        left, right, parent = self._flat("left"), self._flat("right"), self._flat("parent")
        population = self._flat("population")
        flat = t * C + node
        # each deviating dim is cut between the box and x
        over = x > box_max[flat]
        q, p = _cut(np.where(over, box_max[flat], x), np.where(over, x, box_min[flat]), rates, rate, draws)
        above = over[np.arange(t.size), q]

        internal = self.size[t].copy()
        leaf = internal + 1
        self.size[t] += 2
        inner_flat = t * C + internal
        leaf_flat = t * C + leaf
        old_parent = parent[flat].astype(np.int64)

        box_min[leaf_flat] = x
        box_max[leaf_flat] = x
        population[leaf_flat] = 1
        parent[leaf_flat] = internal

        self._flat("split_dim")[inner_flat] = q
        self._flat("split_val")[inner_flat] = p
        self._flat("split_time")[inner_flat] = time
        box_min[inner_flat] = np.minimum(box_min[flat], x)
        box_max[inner_flat] = np.maximum(box_max[flat], x)
        population[inner_flat] = population[flat] + 1
        parent[inner_flat] = old_parent
        left[inner_flat] = np.where(above, node, leaf)
        right[inner_flat] = np.where(above, leaf, node)
        parent[flat] = internal
        self.child[inner_flat] = np.where(above, flat, leaf_flat)
        self.child[TC + inner_flat] = np.where(above, leaf_flat, flat)
        self.child[leaf_flat] = self.child[TC + leaf_flat] = leaf_flat

        at_root = old_parent == NO_NODE
        self.root[t[at_root]] = internal[at_root]
        t, node, internal, inner_flat, old_parent = (
            a[~at_root] for a in (t, node, internal, inner_flat, old_parent)
        )
        up = t * C + old_parent
        via_left = left[up] == node
        left[up[via_left]] = internal[via_left]
        right[up[~via_left]] = internal[~via_left]
        self.child[(~via_left) * TC + up] = inner_flat
