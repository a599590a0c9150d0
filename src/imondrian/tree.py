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

A forest packs all of its trees into one ``ForestArena``, whose kernels
walk every tree in lockstep, one depth level per numpy pass. The build is
one of them: every open node of every tree at a depth gets its box from a
segment min/max over the node's points, its split time and cut from its
tree's own generator, and its children's points from a stable partition,
so slots are numbered breadth first. Routing and extension descend through
a child table derived from the links, in which a leaf points to itself, so
one gather per level moves every lane and a lane that reached its leaf
stays there. Extension walks one lane per tree, every lane every level,
and reads each tree's path off that walk; it races one exponential clock
per candidate node (a node on the point's path that the point lies outside
of), each tree draws all of its clocks and its cut in one call of its own
generator, and only the boxes the point lies outside of are rewritten.
Scoring adds to a point's edge count the c term of the reached leaf's
population, which is 0 for a single point. The per-tree references the
kernels are tested against (``fit_tree``, ``path_length`` and
``extend_tree``) live in ``tests/reference.py``.

A large batch is routed on every CPU in the process's affinity mask (so
``taskset -c 0`` keeps it on one) by a fork-join over contiguous blocks of
points, one process per FORK_LANES (tree, point) lanes, each bound to its
own CPU: a fork and its wait cost 1.8-3.7 ms on a 2-core VM, against
260-280 ns a routed lane. The split is by points and never by trees, so
each point's sum is still taken by one process in tree order, and scores
are bit for bit those of one process.
"""

from __future__ import annotations

import mmap
import os
import sys
import threading

import numpy as np

from .errors import DimensionMismatchError

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

# (tree, point) lanes each process of ForestArena.route must have before it
# forks: a fork plus its wait took 1.8-3.7 ms on a 2-core VM and a routed
# lane about 260 ns, so two processes break even near 27,000 lanes, and at
# this floor one-point calls and a 20-tree fit on 2,048 rows stay in-process
FORK_LANES = 2 * ROUTE_LANES


def node_fields(lead: tuple[int, ...], dim: int) -> list[tuple[str, np.dtype, tuple[int, ...], object]]:
    """(name, dtype, shape, unused-slot value) of every node field over the
    leading axes ``lead``, in ``_FIELDS`` order; boxes add a ``dim`` axis."""
    return [
        (name, np.dtype(dtype), lead + ((dim,) if name.startswith("box") else ()), fill)
        for name, dtype, fill in _FIELDS
    ]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate a single point: 1-D with at least one coordinate, finite,
    optionally of a fixed dimension."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a single point, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatchError("point has no coordinates")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(
            f"point has {arr.size} coordinates, expected {dim}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Validate a point set as a float (n, d) array.

    A 1-D sequence is treated as n one-dimensional points. Ragged input and
    points without coordinates (d = 0) raise DimensionMismatchError; an
    empty set and non-finite values raise ValueError.
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
    if arr.shape[1] == 0:
        raise DimensionMismatchError("points have no coordinates")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"points have dimension {arr.shape[1]}, expected {dim}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


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
    off = np.flatnonzero((q >= d) | (widths[rows, np.minimum(q, d - 1)] <= 0.0))
    if off.size:
        q[off] = d - 1 - np.argmax(widths[off, ::-1] > 0.0, axis=1)
    lo, hi = lo[rows, q], hi[rows, q]
    p = lo + (hi - lo) * u[:, 1]
    # a cut exactly on the interval's lower end would leave one side empty
    return q, np.where(p <= lo, hi, p)


def _runs(trees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run in a sorted array of tree indices."""
    starts = np.empty(trees.size, dtype=bool)
    starts[:1] = True
    np.not_equal(trees[1:], trees[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    count = np.empty_like(first)
    count[:-1] = first[1:] - first[:-1]
    count[-1:] = trees.size - first[-1:]
    return first, count


# a box this large would make the split clock fire at time 0 forever
_OVERFLOW = "box is too large: its linear dimension overflows to infinity"


class MondrianTree:
    """Read-only view of one tree of a ``ForestArena``, from ``ForestArena.tree``.

    Parallel arrays alias the tree's arena row, one field per node: split
    dimension/value/time, child and parent links, subtree population, and
    the smallest box of the points the node was built from (enlarged as
    streamed points pass through). ``rng`` is the tree's own generator, so
    that a (seed, data) pair fully determines every structure it will ever
    grow into.
    """

    __slots__ = ("dim", "rng", "root", "size") + FIELD_NAMES

    @property
    def capacity(self) -> int:
        return self.left.size

    @property
    def node_count(self) -> int:
        return self.size


def _check_rates_finite(root_min: np.ndarray, root_max: np.ndarray, x: np.ndarray) -> None:
    """Raise ValueError unless the root box enlarged to admit x has a finite
    linear dimension. Every box on x's path lies inside that enlarged box,
    so this bounds x's deviation rate at every node it will visit."""
    with np.errstate(over="ignore"):
        span = (np.maximum(root_max, x) - np.minimum(root_min, x)).sum(axis=-1)
    if not np.isfinite(span).all():
        raise ValueError("point is too far from the tree's box: its deviation rate overflows")


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _pin(cpus: set[int]) -> set[int] | None:
    """Bind this process to the CPUs ``cpus`` and return the mask it had, or
    return None and leave it as it was where the OS has no affinity mask or
    refuses the set."""
    try:
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        return None
    return before


def _can_fork() -> bool:
    """Whether this process can fork safely and silently: ``os.fork`` exists
    and no other thread runs, since a child holds only the forking thread.
    From Python 3.12 the interpreter also warns when the OS reports other
    threads (a BLAS pool counts), so there the OS's count must be 1 too."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


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

    ``extend`` follows one draw contract, tree by tree, so a tree's result
    does not depend on the other trees. Tree t's candidates are the k nodes
    on x's path with a positive deviation rate, in path order. With k = 0
    the tree draws nothing and absorbs x. Otherwise it makes one call
    ``random(k + 2)``: the first k uniforms are the candidates' clocks, with
    waiting time -log1p(-u) / rate, the Exp(rate) clock of the Mondrian
    process (Roy & Teh 2008), and the last two pick the cut's dimension and
    value. A clock uniform of exactly 0, a waiting time of 0, is redrawn
    after that call by scalar ``random()`` calls until it is nonzero. The
    first candidate whose parent time plus waiting time is below its own
    split time fires; by memorylessness the later clocks go unused, as in
    Mondrian-forest extension (Lakshminarayanan, Roy & Teh 2014).

    ``route`` and ``extend`` descend through ``child``, an int64 table of
    length 2 * T * C (T trees, capacity C). Entry ``side * T * C + g`` holds
    the flat index ``t * C + slot`` of flat node g's left (side 0) or right
    (side 1) child; a leaf or an unused slot holds g itself on both sides,
    so a lane that reaches its leaf parks there. One level is then: gather
    the split dimension and value, compare (right iff x[q] >= p), gather
    ``child[go * T * C + node]``. A parked lane's comparison is ignored, so
    a leaf's ``split_dim`` of -1 may read any valid coordinate. ``route``
    compacts its many lanes once half of them have parked; ``extend`` has
    one lane per tree and steps all of them every level, so its walk is a
    (levels, T) array from which each tree's path is the root and every
    level at which that lane moved.

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
           points drop out; the rest draw split times and cuts, and those
           whose split time is not finite stay leaves too;
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
            t, rate = seg_tree[split], rate[split]
            first, count = _runs(t)  # each tree's first split and split count
            e, u = np.empty(split.size), np.empty((split.size, 2))
            for tree, a, b in zip(t[first].tolist(), first.tolist(), (first + count).tolist()):
                gen = self.rngs[tree]
                gen.standard_exponential(out=e[a:b])
                gen.random(out=u[a:b])
            with np.errstate(over="ignore"):
                e /= rate
                for j in np.flatnonzero(e == 0.0).tolist():
                    while e[j] == 0.0:
                        e[j] = self.rngs[t[j]].standard_exponential() / rate[j]
                time = seg_tau[split] + e
            # a subnormal rate can push the split time to infinity, a leaf's
            # time: such a node stays a leaf, with its draws spent
            finite = np.isfinite(time)
            if not finite.all():
                split, t, rate, time, u = (a[finite] for a in (split, t, rate, time, u))
                if not split.size:
                    break
                first, count = _runs(t)
            node, k = seg_node[split], split.size
            q, p = _cut(lo.take(split, axis=0), hi.take(split, axis=0), widths.take(split, axis=0), rate, u)
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
            lane_seg = lane_seg.take(keep)
            go_right = pts.ravel().take(keep * pts.shape[1] + q.take(lane_seg)) >= p.take(lane_seg)
            pts = pts.take(keep.take(np.argsort(2 * lane_seg + go_right, kind="stable")), axis=0)
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
        view = MondrianTree()
        view.dim = self.dim
        view.rng = self.rngs[t]
        view.root = int(self.root[t])
        view.size = int(self.size[t])
        for name in FIELD_NAMES:
            row = getattr(self, name)[t]
            row.flags.writeable = False
            setattr(view, name, row)
        return view

    def _double(self) -> None:
        """Double every row's capacity, one field at a time, so that each
        old field can be freed as soon as its replacement is filled."""
        cap = self.capacity
        for name, dtype, shape, fill in node_fields((self.num_trees, max(2 * cap, 8)), self.dim):
            field = np.full(shape, fill, dtype=dtype)
            field[:, :cap] = getattr(self, name)
            setattr(self, name, field)

    def _flat(self, name: str) -> np.ndarray:
        """A field with the tree and node axes merged: index ``t * capacity + node``."""
        arr = getattr(self, name)
        return arr.reshape((-1,) + arr.shape[2:])

    def route(self, X: np.ndarray, leaf_depth) -> np.ndarray:
        """Sum over trees of each point's scoring depth (float64): its
        root-to-leaf edge count plus ``leaf_depth`` of the population of the
        leaf it reached, where ``leaf_depth`` maps an int64 array of leaf
        populations to a float64 array of depths that is 0 for population 1.
        ``X`` is a validated (n, dim) array.

        A large batch is routed on every CPU in the process's affinity mask,
        by a fork-join over contiguous blocks of points: one worker per
        FORK_LANES (tree, point) lanes, at most one per usable CPU and per
        point. Each block but the first goes to a forked child, which reads
        the arena copy-on-write, writes its block's sums into an anonymous
        shared mapping and leaves by ``os._exit``, so it never returns into
        the caller's code; the parent routes the first block meanwhile and
        waits for every child. Each process is bound to its own CPU of the
        mask while it routes, and the parent's mask is restored afterwards:
        on a 2-core VM the OS kept a new child on its parent's CPU for tens
        of milliseconds, so that unbound, a 2,048-point batch routed slower
        in two processes than in one. A block whose fork raised OSError or
        whose child did not exit 0 is routed again in-process, so errors
        surface as they would without the fork. The split is by points, not
        trees, so each point's sum is still taken by one process in tree
        order and is bit for bit the one-process sum (see ``_route``). The
        parent stays in-process when it cannot fork safely (see
        ``_can_fork``).
        """
        n = X.shape[0]
        cpus = _usable_cpus()
        workers = min(len(cpus), n * self.num_trees // FORK_LANES, n)
        if workers < 2 or not _can_fork():
            return self._route(X, leaf_depth)
        try:
            shared = mmap.mmap(-1, 8 * n)
        except OSError:
            return self._route(X, leaf_depth)
        bounds = [n * w // workers for w in range(workers + 1)]
        blocks = list(zip(bounds[1:-1], bounds[2:]))  # the children's blocks
        depth_sum = np.empty(n)
        with shared:
            children, status, mask = {}, {}, None
            try:
                for cpu, (a, b) in zip(cpus[1:], blocks):
                    try:
                        pid = os.fork()
                    except OSError:
                        continue
                    if pid == 0:
                        code = 1
                        try:
                            _pin({cpu})
                            shared[8 * a : 8 * b] = self._route(X[a:b], leaf_depth).tobytes()
                            code = 0
                        finally:
                            os._exit(code)
                    children[pid] = (a, b)
                mask = _pin({cpus[0]})
                depth_sum[: bounds[1]] = self._route(X[: bounds[1]], leaf_depth)
            finally:
                if mask is not None:
                    _pin(mask)
                for pid, block in children.items():
                    try:
                        status[block] = os.waitpid(pid, 0)[1]
                    except ChildProcessError:  # reaped elsewhere: outcome unknown
                        pass
            for a, b in blocks:
                if status.get((a, b)) == 0:
                    depth_sum[a:b] = np.frombuffer(shared[8 * a : 8 * b])
                else:
                    depth_sum[a:b] = self._route(X[a:b], leaf_depth)
        return depth_sum

    def _route(self, X: np.ndarray, leaf_depth) -> np.ndarray:
        """``route`` in this process. Lanes are (tree, point) pairs
        in tree-major order, routed about ROUTE_LANES at a time so memory
        stays flat. Each level is one step through ``child``; a lane's depth
        is its number of moves, lanes are compacted once at least half of
        them have parked on their leaves, and the walk ends when none moved.

        A tree of L leaves whose root holds more than L points has a leaf of
        two or more. Without such a tree every depth is an edge count and
        sums exactly; with one, each lane's leaf is kept, ``leaf_depth`` is
        applied once per pass, and the sums are taken tree by tree in tree
        order, so that a point's sum does not depend on the batch it is in.
        """
        n, d = X.shape
        C, TC = self.capacity, self.left.size
        flat_x = np.ascontiguousarray(X).ravel()
        split_dim, split_val = self._flat("split_dim"), self._flat("split_val")
        population = self._flat("population")
        root_population = self.population[np.arange(self.num_trees), self.root]
        duplicates = bool((root_population > (self.size + 1) // 2).any())
        depth_sum = np.zeros(n)
        block = min(n, ROUTE_LANES)
        trees_per_pass = max(ROUTE_LANES // block, 1)
        for p0 in range(0, n, block):
            offsets = np.arange(p0, min(p0 + block, n)) * d  # row starts in flat_x
            acc = depth_sum[p0 : p0 + offsets.size]
            for t0 in range(0, self.num_trees, trees_per_pass):
                trees = np.arange(t0, min(t0 + trees_per_pass, self.num_trees))
                node = np.repeat(trees * C + self.root[trees], offsets.size)
                xrow = np.tile(offsets, trees.size)
                lane = np.arange(node.size)
                depth = np.zeros(node.size, dtype=np.int64)
                out = np.empty_like(depth)
                leaf = np.empty_like(depth) if duplicates else None
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
                        if duplicates:
                            leaf[lane[parked]] = node[parked]
                        lane, node, xrow, depth = lane[moved], node[moved], xrow[moved], depth[moved]
                out[lane] = depth
                if not duplicates:
                    acc += out.reshape(trees.size, -1).sum(axis=0)
                    continue
                leaf[lane] = node
                for row in (out + leaf_depth(population[leaf])).reshape(trees.size, -1):
                    acc += row
        return depth_sum

    def extend(self, x: np.ndarray) -> None:
        """Insert one validated point into every tree.

        1. Walk x down every tree at once, every lane every level, and read
           each tree's path off the walk.
        2. Compute every deviation rate on those paths at once, let each
           tree with candidates make its one draw (see the class docstring),
           and find every tree's first firing candidate with array
           operations.
        3. Bump the populations of the nodes passed before the clock fired,
           enlarge the boxes of those of them that x lies outside of (a
           positive rate; any other box already holds x), and splice a new
           internal node and leaf above the node where it fired.

        Raises ValueError before any tree is touched if a rate would
        overflow in some tree.
        """
        path_tree, path_flat, lo, hi, dev, rate, fired, fire_time, draws = self._race(x)
        t = path_tree.take(fired)
        C = self.capacity
        # 3. grow before taking views of the fields, so that each old field
        # is freed as soon as its replacement is filled
        if fired.size and self.size.take(t).max() + 2 > C:
            self._double()  # a doubled row always has room for two more
            self._relink()
            path_flat = path_flat + path_tree * (self.capacity - C)
        stop = np.full(self.num_trees, path_tree.size)
        stop[t] = fired
        passed = np.arange(path_tree.size) < stop.take(path_tree)
        self._flat("population")[path_flat[passed]] += 1
        moved = np.flatnonzero(passed & (rate > 0.0))
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        box_min[path_flat.take(moved)] = np.minimum(lo.take(moved, axis=0), x)
        box_max[path_flat.take(moved)] = np.maximum(hi.take(moved, axis=0), x)
        if fired.size:
            self._splice(
                t, path_flat.take(fired), x, fire_time, lo.take(fired, axis=0), hi.take(fired, axis=0),
                dev.take(fired, axis=0), rate.take(fired), draws,
            )

    def _race(self, x: np.ndarray):
        """Phases 1 and 2 of ``extend``: the path of x in every tree as
        tree-major tree and flat node indices; the box rows, deviations and
        rates along it; and for each tree whose clock fired its position on
        the path, firing time and the two cut uniforms of its draw."""
        T, C = self.left.shape
        TC = T * C
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        root = np.arange(T) * C + self.root

        # 1. walk every lane every level; a parked lane loops on its leaf
        split_dim, split_val = self._flat("split_dim"), self._flat("split_val")
        levels = [root]
        flat = root
        while True:
            side = (x.take(split_dim[flat]) >= split_val[flat]) * TC
            side += flat
            nxt = self.child.take(side)
            if not np.count_nonzero(nxt != flat):
                break
            levels.append(nxt)
            flat = nxt
        # the (L, T) walk; each tree's path, in path order, is its root and
        # then every level at which its lane moved, read off tree-major
        walk = np.array(levels)
        on_path = np.empty(walk.shape, dtype=bool)
        on_path[0] = True
        np.not_equal(walk[1:], walk[:-1], out=on_path[1:])
        path_flat = walk.T[on_path.T]
        length = on_path.sum(axis=0)
        path_tree = np.repeat(np.arange(T), length)
        starts = np.cumsum(length) - length  # each tree's root on the path

        # 2. rates and parent times on every path node; the candidates are
        # the nodes with a positive rate, in path order
        lo, hi = box_min.take(path_flat, axis=0), box_max.take(path_flat, axis=0)
        _check_rates_finite(lo.take(starts, axis=0), hi.take(starts, axis=0), x)
        dev = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        rate = dev.sum(axis=1)
        node_time = self._flat("split_time").take(path_flat)
        tau = np.empty_like(node_time)
        tau[1:] = node_time[:-1]
        tau[starts] = 0.0  # roots have parent time 0
        cand = np.flatnonzero(rate > 0.0)
        cand_tree = path_tree.take(cand)
        first, count = _runs(cand_tree)

        # one draw per tree with k > 0 candidates: k clocks, then the cut's
        # dimension and value uniforms; zero clocks are redrawn after it
        tree_of = np.repeat(np.arange(first.size), count)
        at = first + 2 * np.arange(first.size)  # each tree's offset in u
        u = np.empty(cand.size + 2 * first.size)
        for t, a, b in zip(cand_tree.take(first).tolist(), at.tolist(), (at + count + 2).tolist()):
            self.rngs[t].random(out=u[a:b])
        clock = u.take(np.arange(cand.size) + 2 * tree_of)
        for j in np.flatnonzero(clock == 0.0).tolist():
            while clock[j] == 0.0:
                clock[j] = self.rngs[cand_tree[j]].random()
        with np.errstate(over="ignore"):  # a subnormal rate waits forever
            wait = -np.log1p(-clock) / rate.take(cand)
        fire_at = tau.take(cand) + wait
        hit = np.flatnonzero(fire_at < node_time.take(cand))
        hit = hit.take(_runs(cand_tree.take(hit))[0])  # each tree's first firing
        cut = (at + count).take(tree_of.take(hit))
        return (
            path_tree, path_flat, lo, hi, dev, rate,
            cand.take(hit), fire_at.take(hit), u.take(cut[:, None] + np.arange(2)),
        )

    def _splice(self, t, flat, x, time, node_min, node_max, rates, rate, draws) -> None:
        """For each of the trees t (each once), splice a new internal node of
        split time ``time`` above flat node ``flat``, whose box rows are
        ``node_min`` and ``node_max``, with a new leaf for x as its other
        child. ``rates`` are the node's deviations from x, ``rate`` their
        sum, and ``draws`` the two uniforms that pick the cut's dimension
        and value."""
        C, TC = self.capacity, self.left.size
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        left, right, parent = self._flat("left"), self._flat("right"), self._flat("parent")
        population = self._flat("population")
        node = flat - t * C
        # each deviating dim is cut between the box and x
        over = x > node_max
        q, p = _cut(np.where(over, node_max, x), np.where(over, x, node_min), rates, rate, draws)
        above = over.ravel().take(np.arange(t.size) * self.dim + q)

        internal = self.size.take(t)
        leaf = internal + 1
        self.size[t] += 2
        inner_flat = t * C + internal
        leaf_flat = inner_flat + 1
        old_parent = parent.take(flat).astype(np.int64)

        box_min[leaf_flat] = x
        box_max[leaf_flat] = x
        population[leaf_flat] = 1
        parent[leaf_flat] = internal

        self._flat("split_dim")[inner_flat] = q
        self._flat("split_val")[inner_flat] = p
        self._flat("split_time")[inner_flat] = time
        box_min[inner_flat] = np.minimum(node_min, x)
        box_max[inner_flat] = np.maximum(node_max, x)
        population[inner_flat] = population.take(flat) + 1
        parent[inner_flat] = old_parent
        left[inner_flat] = np.where(above, node, leaf)
        right[inner_flat] = np.where(above, leaf, node)
        parent[flat] = internal
        self.child[inner_flat] = np.where(above, flat, leaf_flat)
        self.child[TC + inner_flat] = np.where(above, leaf_flat, flat)
        self.child[leaf_flat] = self.child[TC + leaf_flat] = leaf_flat

        at_root = old_parent == NO_NODE
        if at_root.any():
            self.root[t[at_root]] = internal[at_root]
            t, node, internal, inner_flat, old_parent = (
                a[~at_root] for a in (t, node, internal, inner_flat, old_parent)
            )
        up = t * C + old_parent
        via_left = left.take(up) == node
        left[up[via_left]] = internal[via_left]
        right[up[~via_left]] = internal[~via_left]
        self.child[(~via_left) * TC + up] = inner_flat
