"""Randomized hierarchical binary partition trees with streaming insertion.

Each tree recursively cuts the smallest axis-aligned box around the points
in a node. A cut carries a *split time* drawn from an exponential clock
whose rate is the box's linear dimension (the sum of its side lengths).
Split times increase from root to leaf, and that ordering is what makes
in-place insertion possible: a streamed point lying outside a node's box
can win the race against the node's recorded time and splice a new internal
node *above* it, instead of only growing the tree at the leaves.

Nodes live in a growable structure-of-arrays arena addressed by integer
index. Every link lives in one child table, in which a leaf points to
itself; a node is a leaf iff it is its own child, and leaves always carry
an infinite split time.

A forest packs all of its trees into one ``ForestArena``, whose kernels
walk every tree in lockstep, one depth level per numpy pass. The build is
one of them: every open node of every tree at a depth gets its box from a
segment min/max over the node's points, its split time and cut from its
tree's own generator, and its children's points from a stable partition, so
slots are numbered breadth first. Routing and extension descend through the
child table, so one gather per level moves every lane and a lane that
reached its leaf stays there. Extension is one body in three phases, after
its overflow check and any regrow of the arena, so no index changes under
it: walk one lane per tree, every lane every level, and read each tree's
path off that walk; race one exponential clock per candidate node (a node on
the point's path that the point lies outside of), each tree drawing all of
its clocks and its cut in one call of its own generator; write, rewriting
only the boxes the point lies outside of and splicing above the node whose
clock fired. Scoring adds to a point's edge count, which routing reads off
a table of node depths, the c term of the reached leaf's population (0 for
one point). A one-point score walks as extension does and leaves its walk to
the insert of that point that follows it; every insert clears it. The
per-tree references the kernels are tested against (``fit_tree``,
``path_length`` and ``extend_tree``) live in ``tests/reference.py``.

A large forest is built, and a large batch routed, on every CPU in the
process's affinity mask (so ``taskset -c 0`` keeps them on one), by one
fork-join (``_fork_join``) over contiguous blocks, each process bound to
its own CPU and each child handing its result back through an unnamed
file. The build splits by trees, one process per FORK_BUILD_LANES (tree,
point) lanes: every tree draws only from its own generator, so the forest
is bit for bit the one-process forest. Routing splits by points and never
by trees, one process per FORK_LANES lanes, so each point's sum is still
taken by one process in tree order, and scores are bit for bit those of
one process.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import sys
import tempfile
import threading

import numpy as np

from .errors import DimensionMismatchError

NO_NODE = -1

# the per-node fields but the links: (name, dtype, value of an unused slot);
# boxes add a dim axis and come first, so growing one field at a time peaks
# lowest. The links live in the arena's child table (see ForestArena)
_FIELDS = (
    ("box_min", np.float64, 0.0),
    ("box_max", np.float64, 0.0),
    ("split_dim", np.int32, -1),
    ("split_val", np.float64, 0.0),
    ("split_time", np.float64, np.inf),
    ("population", np.int64, 0),
)
FIELD_NAMES = tuple(name for name, _, _ in _FIELDS)

# (tree, point) lanes per numpy pass of ForestArena.route; passes of 2^14
# lanes kept the working set in cache and routed fastest when measured. A
# tree group of ForestArena.grow holds one to two passes' worth
ROUTE_LANES = 1 << 14

# (tree, point) lanes each process of ForestArena.route must have before it
# forks: on a 2-core VM a routed lane took about 205 ns in one process, and
# two processes (fork, copy-on-write faults and wait: 8-10 ms) were 15-24%
# slower than one at 65,500 lanes and broke even near 100,000 (medians of 15
# routes on psi-256 trees); at this floor one-point calls and a 20-tree fit
# on 2,048 rows stay in-process, and a 2,048-point rescore of 100 trees forks
FORK_LANES = 3 * ROUTE_LANES

# (tree, point) lanes each process of ForestArena.grow must have before it
# forks: on a 2-core VM (medians of 21 builds) two processes built 8,192
# lanes 4% slower than one, 12,800 lanes 3% faster and 16,384 lanes 5-13%
# faster, so they break even near 6,000 lanes each; at this floor the
# paper's 100 trees on subsamples of 256 fork and most test builds do not
FORK_BUILD_LANES = 8192


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
    if arr.ndim > 1:
        raise DimensionMismatchError(f"expected a single point, got shape {arr.shape}")
    return as_points(arr.reshape(1, -1), dim)[0]


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


def _unnamed_file():
    """An unnamed read-write binary file: in memory where the OS has
    ``memfd_create``, a temporary file elsewhere."""
    if hasattr(os, "memfd_create"):
        return open(os.memfd_create("imondrian"), "w+b")
    return tempfile.TemporaryFile()


def _read_into(src, rows: np.ndarray) -> None:
    """Fill the contiguous array ``rows`` with the next bytes of ``src``."""
    if src.readinto(rows) != rows.nbytes:
        raise EOFError("a forked block's result ended early")


def _fork_join(count: int, lanes: int, floor: int, child, local, take) -> None:
    """Do items 0..count-1, ``lanes`` lanes of work in all, in contiguous
    blocks on every CPU of the affinity mask: one block per usable CPU, at
    most one per ``floor`` lanes and one per item. When that makes fewer than
    two blocks or this process cannot fork safely (see ``_can_fork``), it
    forks nothing and does all the items itself with ``local(0, count)``.

    Each block but the first goes to a forked child, which calls ``child(a,
    b, out)`` to do items a..b-1 and write the result to ``out``, an unnamed
    file of its own, and leaves by ``os._exit``, so it never returns into
    the caller's code. All forks come first, so a child shares no page that
    the parent writes afterwards. The parent then does the first block with
    ``local(a, b)``, reaps every child, and reads each child's result with
    ``take(a, b, src)`` from the start of its file. A block whose file or
    fork raised OSError, or whose child did not exit 0, is done again by
    ``local``, so errors surface as they would without the fork.

    Each process is bound to its own CPU of the mask while it works, and
    the parent's mask is restored afterwards: on a 2-core VM the OS kept a
    new child on its parent's CPU for tens of milliseconds, so that unbound,
    a 2,048-point batch routed slower in two processes than in one.
    """
    cpus = _usable_cpus()
    workers = min(len(cpus), lanes // floor, count)
    if workers < 2 or not _can_fork():
        local(0, count)
        return
    bounds = [count * w // workers for w in range(workers + 1)]
    blocks = list(zip(bounds[1:-1], bounds[2:]))  # the children's blocks
    with contextlib.ExitStack() as files:
        children, status, mask = {}, {}, None
        try:
            for cpu, block in zip(cpus[1:], blocks):
                try:
                    out = files.enter_context(_unnamed_file())
                    pid = os.fork()
                except OSError:
                    continue
                if pid == 0:
                    code = 1
                    try:
                        _pin({cpu})
                        child(*block, out)
                        out.flush()
                        code = 0
                    finally:
                        os._exit(code)
                children[block] = pid, out
            mask = _pin({cpus[0]})
            local(0, bounds[1])
        finally:
            if mask is not None:
                _pin(mask)
            for block, (pid, _) in children.items():
                try:
                    status[block] = os.waitpid(pid, 0)[1]
                except ChildProcessError:  # reaped elsewhere: outcome unknown
                    pass
        for block in blocks:
            if status.get(block) == 0:
                src = children[block][1]
                src.seek(0)
                take(*block, src)
            else:
                local(*block)


class ForestArena:
    """Every tree of a forest packed into one structure-of-arrays arena.

    Each node field has shape ``(num_trees, capacity)`` (boxes add a
    ``dim`` axis); row t holds tree t. ``root``, ``size`` and ``rngs``
    hold each tree's root, used slot count and own generator. Slots past a
    tree's size keep the unused-slot values. ``extend`` doubles the
    capacity of every row before it walks whenever some row has fewer than
    two free slots, the most one insert takes.

    The kernels move all trees down one depth level per numpy step: ``grow``
    builds the trees, ``route`` sums depths for a batch of points, and
    ``extend`` inserts one point into every tree. A one-point ``route``
    walks as ``extend`` does and hands the walk to the next ``extend`` of
    that point; every ``extend`` clears it.

    ``grow`` builds every node of a depth in one pass over the trees of a
    group. Tree t draws only from its own generator: first its subsample,
    then, level by level, the standard exponentials of its open nodes in
    slot order, then two uniforms per such node (cut dimension and value),
    then a fresh exponential for any waiting time that rounded to 0. So a
    tree depends on its generator and the data alone, not on the other
    trees, on how trees are grouped or on which process builds them; slots
    are numbered breadth first. A box's zero bound is always +0.0.

    ``extend`` is one body: overflow check, regrow, then walk, race and
    write. It follows one draw contract, tree by tree, so a tree's result
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

    The links live only in ``child``, an int64 table of length 2 * T * C
    (T trees, capacity C). Entry ``side * T * C + g`` holds the flat index
    ``t * C + slot`` of flat node g's left (side 0) or right (side 1) child;
    a leaf or an unused slot holds g itself on both sides, so a lane that
    reaches its leaf parks there. One level is then: gather the split
    dimension and value, compare (right iff x[q] >= p), gather
    ``child[go * T * C + node]``. A parked lane's comparison is ignored, so
    a leaf's ``split_dim`` of -1 may read any valid coordinate. ``route``
    records the leaf each lane parks on and reads its depth off
    ``_node_depths``; ``extend`` has one lane per tree and steps all of them
    every level, so its walk is a (levels, T) array from which each tree's
    path is the root and every level at which that lane moved. The model
    file stores the table's two sides row-local (``data_io.save_model``).
    """

    def __init__(self, num_trees: int, dim: int, capacity: int):
        self.dim = int(dim)
        self.root = np.full(num_trees, NO_NODE, dtype=np.int64)
        self.size = np.zeros(num_trees, dtype=np.int64)
        self.rngs: list[np.random.Generator | None] = [None] * num_trees
        for name, dtype, shape, fill in node_fields((num_trees, max(int(capacity), 1)), self.dim):
            setattr(self, name, np.full(shape, fill, dtype=dtype))
        self.child = np.tile(np.arange(self.population.size), 2)
        self._walked = None  # (x's bytes, _walk(x)) after route([x]); see extend

    @classmethod
    def grow(cls, X: np.ndarray, rngs: list[np.random.Generator], sample_size: int | None = None) -> ForestArena:
        """Build one tree per generator on the validated (n, d) array ``X``.

        Each tree is built on ``sample_size`` rows drawn without replacement
        by its own generator, or on all of ``X`` when ``sample_size`` is
        None, and takes ownership of that generator. Raises ValueError when
        a box's linear dimension overflows.

        A large forest is built on every CPU in the process's affinity mask,
        by a fork-join over contiguous blocks of trees (see ``_fork_join``):
        one worker per FORK_BUILD_LANES (tree, point) lanes, at most one per
        usable CPU and per tree. A child builds its block in an arena of its
        own and writes the block's node rows, ``child`` entries, roots,
        sizes and generator states to its file; the parent allocates the
        arena only after forking, builds the first block in it and reads each
        child's rows straight into their place. Each tree draws only from its
        own generator (see the class docstring), so the forest is bit for bit
        the one a single process builds, however it is split.
        """
        n, d = X.shape
        m = n if sample_size is None else sample_size
        T, C = len(rngs), 2 * m - 1
        arena = None

        def local(a, b):
            nonlocal arena
            if arena is None:  # after the forks: see _fork_join
                arena = cls(T, d, C)
                arena.rngs = list(rngs)
            arena._grow_trees(X, a, b, sample_size)

        def child(a, b, out):
            part = cls(b - a, d, C)
            part.rngs = list(rngs[a:b])
            part._grow_trees(X, 0, b - a, sample_size)
            part.child += a * C  # flat indices of the whole forest
            pickle.dump([gen.bit_generator.state for gen in part.rngs], out)
            for rows in part._rows(0, b - a):
                out.write(rows)

        def take(a, b, src):
            states = pickle.load(src)
            for rows in arena._rows(a, b):
                _read_into(src, rows)
            for gen, state in zip(arena.rngs[a:b], states):
                gen.bit_generator.state = state

        _fork_join(T, T * m, FORK_BUILD_LANES, child, local, take)
        return arena

    def _grow_trees(self, X: np.ndarray, a: int, b: int, sample_size: int | None) -> None:
        """Build trees a..b-1 (see ``grow``) in as few groups of near-equal
        size as keep each under 2 * ROUTE_LANES (tree, point) lanes, or one
        tree a group, so memory stays flat: fewer, larger groups built
        faster when measured."""
        n = X.shape[0]
        m = n if sample_size is None else sample_size
        groups = min(b - a, max((b - a) * m // ROUTE_LANES, 1))
        for g in range(groups):
            trees = np.arange(a + (b - a) * g // groups, a + (b - a) * (g + 1) // groups)
            if sample_size is None:
                pts = np.tile(X.T, (1, trees.size))
            else:
                pts = X.T.take(np.concatenate([self.rngs[t].choice(n, size=m, replace=False) for t in trees]), axis=1)
            # a fresh array: -0.0 is read as +0.0, so that a box's zero bound
            # does not depend on how numpy's reductions pair signed zeros
            pts += 0.0
            self._grow_levels(trees, pts, m)

    def _rows(self, a: int, b: int) -> list[np.ndarray]:
        """Contiguous views of everything ``grow`` writes for trees a..b-1:
        their rows of each node field, of each side of ``child``, of
        ``root`` and of ``size``."""
        kids = self.child.reshape(2, self.num_trees, -1)
        fields = [getattr(self, name)[a:b] for name in FIELD_NAMES]
        return fields + [kids[0, a:b], kids[1, a:b], self.root[a:b], self.size[a:b]]

    def _grow_levels(self, trees: np.ndarray, pts: np.ndarray, m: int) -> None:
        """Build trees ``trees`` (ascending) on the feature-major (d, N)
        ``pts``, whose columns are each tree's m points in turn.

        Each open node owns a contiguous segment of columns; segments are in
        (tree, slot) order. One pass per depth level:
        1. boxes and populations of the open nodes, by segment min/max;
        2. nodes with one point or a zero-width box stay leaves and their
           points drop out; the rest draw split times and cuts, and those
           whose split time is not finite stay leaves too;
        3. each tree's children take the next slots in order, and a stable
           partition makes each node's points the segments of its children.
        """
        C, TC = self.capacity, self.population.size
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
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
            # node-major rows, so that the width sums add as they always have
            lo = np.ascontiguousarray(np.minimum.reduceat(pts, starts, axis=1).T)
            hi = np.ascontiguousarray(np.maximum.reduceat(pts, starts, axis=1).T)
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
            k = split.size
            q, p = _cut(lo.take(split, axis=0), hi.take(split, axis=0), widths.take(split, axis=0), rate, u)
            flat = flat[split]
            self._flat("split_dim")[flat] = q
            self._flat("split_val")[flat] = p
            self._flat("split_time")[flat] = time
            # 3. children in the next slots of each tree, left before right
            kid_l = self.size[t] + 2 * (np.arange(k) - np.repeat(first, count))
            self.size[t[first]] += 2 * count
            self.child[flat] = t * C + kid_l
            self.child[TC + flat] = t * C + kid_l + 1
            # the stable partition: each split node's points, left side first
            rank = np.full(seg_len.size, -1)
            rank[split] = np.arange(k)
            lane_seg = np.repeat(rank, seg_len)
            keep = np.flatnonzero(lane_seg >= 0)
            lane_seg = lane_seg.take(keep)
            go_right = pts.ravel().take(q.take(lane_seg) * pts.shape[1] + keep) >= p.take(lane_seg)
            kid_seg = 2 * lane_seg + go_right  # each point's child, in the children's order
            key = kid_seg.astype(np.uint16) if 2 * k <= 1 << 16 else kid_seg  # 16-bit keys radix-sort
            pts = pts.take(keep.take(np.argsort(key, kind="stable")), axis=1)
            seg_len = np.bincount(kid_seg, minlength=2 * k)
            seg_tree = np.repeat(t, 2)
            seg_node = np.column_stack((kid_l, kid_l + 1)).ravel()
            seg_tau = np.repeat(time, 2)

    @property
    def num_trees(self) -> int:
        return self.root.size

    @property
    def capacity(self) -> int:
        return self.population.shape[1]

    def _double(self) -> None:
        """Double every row's capacity, one field at a time, so that each old
        field can be freed as soon as its replacement is filled; child entry
        t * C + s moves to t * 2C + s, and new slots are self loops."""
        cap, new = self.capacity, max(2 * self.capacity, 8)
        for name, dtype, shape, fill in node_fields((self.num_trees, new), self.dim):
            field = np.full(shape, fill, dtype=dtype)
            field[:, :cap] = getattr(self, name)
            setattr(self, name, field)
        child = np.tile(np.arange(self.num_trees * new), 2).reshape(2, self.num_trees, new)
        old = self.child.reshape(2, self.num_trees, cap)
        child[:, :, :cap] = old + old // cap * (new - cap)
        self.child = child.ravel()

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
        by a fork-join over contiguous blocks of points (see ``_fork_join``):
        one worker per FORK_LANES (tree, point) lanes, at most one per usable
        CPU and per point. A child reads the arena copy-on-write, builds its
        own node-depth table and writes its block's sums to its file. The
        split is by points, not trees, so each point's sum is taken by one
        process in tree order, bit for bit the one-process sum (``_route``).

        A one-point batch is walked as ``extend`` walks (``_walk``), its
        depths added in tree order one at a time, bit for bit as in ``_route``;
        the walk is left, keyed by the point's bytes, for the next ``extend``.
        """
        n = X.shape[0]
        if n == 1:  # walked as extend walks, and left for its extend
            self._walked = (X[0].tobytes(), self._walk(X[0]))
            _, path_flat, starts = self._walked[1]
            leaf = np.append(starts[1:], path_flat.size) - 1
            depth = leaf - starts + leaf_depth(self._flat("population").take(path_flat.take(leaf)))
            return np.add.accumulate(depth)[-1:]
        depth_sum = np.empty(n)

        def local(a, b):
            depth_sum[a:b] = self._route(X[a:b], leaf_depth)

        def child(a, b, out):
            out.write(self._route(X[a:b], leaf_depth))

        def take(a, b, src):
            _read_into(src, depth_sum[a:b])

        _fork_join(n, n * self.num_trees, FORK_LANES, child, local, take)
        return depth_sum

    def _route(self, X: np.ndarray, leaf_depth) -> np.ndarray:
        """``route`` in this process. Lanes are (tree, point) pairs in
        tree-major order, routed about ROUTE_LANES at a time so memory stays
        flat, and carry only their lane number, node and point. Points are
        read feature-major, so lanes at one node read one column, and a pass
        numbers its trees' nodes from 0. A parked lane loops on its leaf, so
        only every second level checks for movement; the walk ends when none
        moved. Once half of the lanes have parked, every lane's node is
        recorded, to be overwritten later for the lanes still moving, and
        those are gathered by index (a boolean mask cost 7 ns per element per
        array, ``flatnonzero`` and ``take`` 2). Each lane's edge count is then
        read off ``_node_depths`` at the leaf it reached.

        A tree of L leaves whose root holds more than L points has a leaf of
        two or more. Without such a tree every depth is an edge count and
        sums exactly; with one, ``leaf_depth`` is applied once per pass and
        the sums are taken tree by tree in tree order, so that a point's sum
        does not depend on the batch it is in.
        """
        n = X.shape[0]
        T, C = self.population.shape
        split_dim, split_val = self._flat("split_dim"), self._flat("split_val")
        population, kids = self._flat("population"), self.child.reshape(2, -1)
        duplicates = bool((self.population[np.arange(T), self.root] > (self.size + 1) // 2).any())
        node_depth = self._node_depths()
        depth_sum = np.zeros(n)
        block = min(n, ROUTE_LANES)
        trees_per_pass = max(ROUTE_LANES // block, 1)
        leaf = np.empty(block * min(trees_per_pass, T), dtype=np.int64)
        for p0 in range(0, n, block):
            m = min(block, n - p0)
            xt = X[p0 : p0 + m].T.ravel()  # feature-major: x[q] of point i at q * m + i
            acc = depth_sum[p0 : p0 + m]
            for t0 in range(0, T, trees_per_pass):
                # the pass's trees, with their nodes numbered from 0
                k = min(trees_per_pass, T - t0)
                a, width = t0 * C, k * C
                dims = np.multiply(split_dim[a : a + width], m, dtype=np.int64)
                vals = split_val[a : a + width]
                kid = (kids[:, a : a + width] - a).ravel()
                node = np.repeat(np.arange(k) * C + self.root[t0 : t0 + k], m)
                point = np.tile(np.arange(m), k)
                lane = np.arange(node.size)
                for level in itertools.count():
                    nxt = kid[(xt[dims[node] + point] >= vals[node]) * width + node]
                    if not level % 2:
                        moved = nxt != node
                        live = np.count_nonzero(moved)
                        if not live:
                            break
                        if 2 * live <= moved.size:
                            leaf[lane] = nxt
                            keep = np.flatnonzero(moved)
                            lane, nxt, point = lane.take(keep), nxt.take(keep), point.take(keep)
                    node = nxt
                leaf[lane] = node
                reached = leaf[: k * m]
                depth = node_depth[a : a + width].take(reached)
                if not duplicates:
                    acc += depth.reshape(k, m).sum(axis=0)
                    continue
                for row in (depth + leaf_depth(population[a : a + width].take(reached))).reshape(k, m):
                    acc += row
            del xt  # before the next block's copy, so one transposed block is held at a time
        return depth_sum

    def _node_depths(self) -> np.ndarray:
        """Each flat node's edge count from its tree's root (0 if unused) by a
        level walk over ``child``, in the smallest int type holding the capacity."""
        TC = self.population.size
        depth = np.zeros(TC, dtype=np.min_scalar_type(self.capacity))
        level = np.arange(self.num_trees) * self.capacity + self.root
        for edges in itertools.count():
            depth[level] = edges
            left = self.child.take(level)
            inner = np.flatnonzero(left != level)  # a leaf is its own child
            if not inner.size:
                return depth
            level = np.concatenate((left.take(inner), self.child.take(level.take(inner) + TC)))

    def extend(self, x: np.ndarray) -> None:
        """Insert one validated point into every tree.

        Raises ValueError, with the arena unchanged, if a rate would
        overflow in some tree (every box on x's path lies inside the root's
        box enlarged to admit x). Then doubles the capacity if some row has
        fewer than two free slots, so that no index changes after that, and:
        1. walks x down every tree at once, or takes the walk ``route`` left
           for x if the capacity did not change (every call clears it);
        2. races: every deviation rate on the paths at once, one draw per
           tree with candidates (see the class docstring), and each tree's
           first firing candidate;
        3. writes: the nodes passed before the clock fired count x, and
           those that x lies outside of (a positive rate) enlarge their
           boxes to it; a new internal node and a leaf for x are spliced
           above each node where a clock fired.
        """
        walked, self._walked = self._walked, None
        T = self.num_trees
        _check_rates_finite(self.box_min[np.arange(T), self.root], self.box_max[np.arange(T), self.root], x)
        if self.size.max() + 2 > self.capacity:
            self._double()  # a doubled row always has room for two more
            walked = None  # its flat indices are the old capacity's
        C, TC = self.capacity, self.population.size
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        population = self._flat("population")

        # 1. walk
        path_tree, path_flat, starts = walked[1] if walked and walked[0] == x.tobytes() else self._walk(x)

        # 2. race: rates and parent times on every path node; the candidates
        # are the nodes with a positive rate, in path order
        lo, hi = box_min.take(path_flat, axis=0), box_max.take(path_flat, axis=0)
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
        fired = cand.take(hit)  # its position on the path

        # 3. write: the nodes passed before the clock fired take x
        t = path_tree.take(fired)
        stop = np.full(T, path_tree.size)
        stop[t] = fired
        passed = np.arange(path_tree.size) < stop.take(path_tree)
        population[path_flat[passed]] += 1
        moved = np.flatnonzero(passed & (rate > 0.0))
        box_min[path_flat.take(moved)] = np.minimum(lo.take(moved, axis=0), x)
        box_max[path_flat.take(moved)] = np.maximum(hi.take(moved, axis=0), x)
        if not fired.size:
            return
        # a new internal node above each fired node, cut between its box and
        # x on a deviating dimension, with a new leaf for x as its other child
        node, up = path_flat.take(fired), path_flat.take(fired - 1)
        node_min, node_max = lo.take(fired, axis=0), hi.take(fired, axis=0)
        over = x > node_max
        draws = u.take((at + count).take(tree_of.take(hit))[:, None] + np.arange(2))
        gap = np.where(over, node_max, x), np.where(over, x, node_min)  # each dim's interval
        q, p = _cut(*gap, dev.take(fired, axis=0), rate.take(fired), draws)
        above = over.ravel().take(np.arange(t.size) * self.dim + q)
        internal = self.size.take(t)
        self.size[t] += 2
        inner = t * C + internal
        leaf = inner + 1
        box_min[leaf] = x
        box_max[leaf] = x
        population[leaf] = 1
        self._flat("split_dim")[inner] = q
        self._flat("split_val")[inner] = p
        self._flat("split_time")[inner] = fire_at.take(hit)
        box_min[inner] = np.minimum(node_min, x)
        box_max[inner] = np.maximum(node_max, x)
        population[inner] = population.take(node) + 1
        self.child[inner] = np.where(above, node, leaf)
        self.child[TC + inner] = np.where(above, leaf, node)
        at_root = fired == starts.take(t)
        self.root[t[at_root]] = internal[at_root]
        up, node, inner = up[~at_root], node[~at_root], inner[~at_root]
        self.child[(self.child.take(up) != node) * TC + up] = inner

    def _walk(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase 1 of ``extend``: the path of x in every tree as tree-major
        tree and flat node indices, and where each tree's root is on it. A
        parked lane loops on its leaf; each tree's path is its root and every
        level at which its lane moved."""
        T, C = self.population.shape
        TC = T * C
        split_dim, split_val = self._flat("split_dim"), self._flat("split_val")
        flat = np.arange(T) * C + self.root
        levels = [flat]
        while True:
            side = (x.take(split_dim[flat]) >= split_val[flat]) * TC
            side += flat
            nxt = self.child.take(side)
            if not np.count_nonzero(nxt != flat):
                break
            levels.append(nxt)
            flat = nxt
        walk = np.array(levels)
        on_path = np.empty(walk.shape, dtype=bool)
        on_path[0] = True
        np.not_equal(walk[1:], walk[:-1], out=on_path[1:])
        length = on_path.sum(axis=0)
        starts = np.cumsum(length) - length
        return np.repeat(np.arange(T), length), walk.T[on_path.T], starts
