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

A forest is one ``Forest``: all of its trees packed into one arena, whose
kernels walk every tree in lockstep, one depth level per numpy pass. The
build is one of them: every open node of every tree at a depth gets its box
from a segment min/max over the node's points, its split time and cut from
its tree's next uniforms, and its children's points from a stable
partition, so slots are numbered breadth first. Routing and extension
descend through the child table, so one gather per level moves every lane
and a lane that reached its leaf stays there. Extension is one body in
three phases: walk one lane per tree, every lane every level, and read each
tree's path off that walk, then check for overflow and regrow the arena if
it is full, moving the path's indices as the child table's move; race one
exponential clock per candidate node (a node on the point's path that the
point lies outside of), all trees drawing their clocks in one call of
``_uniforms``; write, rewriting only the boxes the point lies outside of and
splicing above the node whose clock fired. Scoring adds to a point's edge
count, which routing reads off a table of node depths, the c term of the
reached leaf's population (0 for one point). A one-point score walks as
extension does and leaves its walk to the insert of that point that follows
it; every insert clears it. The per-tree references the kernels are tested
against (``fit_tree``, ``path_length`` and ``extend_tree``) live in
``tests/reference.py``.

A large forest is built, and a large batch routed, on every CPU in the
process's affinity mask, bit for bit as one process would (see
``Forest.grow`` and ``Forest.route``), by ``_fork_join``: this process does
one block of the work and a helper process each other block. The first call
that splits work forks the helpers it needs, one per usable CPU beyond the
first, each bound to its CPU while it works; they live until the
interpreter exits, which reaps them, or until their caller's end of their
job pipe closes. A helper holds a copy of its caller's memory from when it
was forked and no descriptor of the caller's but its two pipe ends and one
unnamed file, through which every job passes all of its data and the
helper its result. ``taskset -c 0`` keeps all the work in one process.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
import pickle
import signal
import struct
import sys
import tempfile
import threading

import numpy as np

from .errors import DimensionMismatchError

NO_NODE = -1

# the per-node fields but the links: (name, dtype, value of an unused slot);
# boxes add a dim axis and come first, so growing one field at a time peaks
# lowest. The links live in the arena's child table (see Forest)
_FIELDS = (
    ("box_min", np.float64, 0.0),
    ("box_max", np.float64, 0.0),
    ("split_dim", np.int32, -1),
    ("split_val", np.float64, 0.0),
    ("split_time", np.float64, np.inf),
    ("population", np.int64, 0),
)
FIELD_NAMES = tuple(name for name, _, _ in _FIELDS)

# (tree, point) lanes per numpy pass of Forest.route; passes of 2^14
# lanes kept the working set in cache and routed fastest when measured. A
# tree group of Forest.grow holds one to two passes' worth
ROUTE_LANES = 1 << 14

# (tree, point) lanes each process of Forest.route must have before the
# work is split: on a 2-core VM, with a warm helper (see _fork_join), two
# processes routed 25,600 lanes of psi-256 trees 7% faster than one (28 of
# 31 alternating pairs), 51,200 lanes 17% faster and 40,960 lanes of 20 full
# trees on 2,048 rows 26% faster (30 of 31), while 20,480 lanes of those
# trees broke even (13 of 31). So one-point calls stay in-process, and a
# 20-tree fit on 2,048 rows and a 2,048-point rescore of 100 trees split
FORK_LANES = ROUTE_LANES

# (tree, point) lanes each process of Forest.grow must have before the work
# is split: on a 2-core VM, with a warm helper (medians of 21 alternating
# builds of 20 trees), two processes built 2,560 lanes 5% faster than one,
# 1,280 lanes 18% slower and 5,120 lanes 27% faster; at this floor the
# paper's 100 trees on subsamples of 256 split, 20 trees on 256 rows do not
FORK_BUILD_LANES = 4096


def node_fields(lead: tuple[int, ...], dim: int) -> list[tuple[str, np.dtype, tuple[int, ...], object]]:
    """(name, dtype, shape, unused-slot value) of every node field over the
    leading axes ``lead``, in ``_FIELDS`` order; boxes add a ``dim`` axis."""
    return [
        (name, np.dtype(dtype), lead + ((dim,) if name.startswith("box") else ()), fill)
        for name, dtype, fill in _FIELDS
    ]


def _uniforms(key: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Uniform number ``counter`` of the tree of key ``key``, elementwise over
    uint64 arrays (Salmon et al. 2011): the SplitMix64 finaliser z of key +
    (counter + 1) * 0x9E3779B97F4A7C15 (Steele, Lea & Flood 2014), as
    ((z >> 12) + 0.5) * 2**-52, in [2**-53, 1 - 2**-53]."""
    z = key + (counter + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mix in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mix)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Validate a point set as a float (n, d) array; a single point x is
    the one-row set ``[x]``.

    A nonempty 1-D sequence is n one-dimensional points; ``[]`` and a (0, 0)
    array are no points of dimension ``dim`` (0 if None). Ragged input, a
    dimension other than ``dim`` (a (0, d > 0) array's too) and nonempty
    points without coordinates raise DimensionMismatchError; coordinates that
    are not real numbers (text, complex) and non-finite values raise ValueError.
    """
    try:
        arr = np.asarray(points)
    except ValueError as exc:  # numpy refuses ragged nesting
        raise DimensionMismatchError("points do not share a single dimensionality") from exc
    try:  # a complex or text array does not cast to float by kind
        arr = arr.astype(float, casting="unsafe" if arr.dtype == object else "same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise ValueError("point coordinates are not real numbers") from exc
    if arr.ndim == 1 or arr.shape == (0, 0):
        arr = arr.reshape(-1, 1) if arr.size else arr.reshape(0, dim or 0)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, d) point set, got shape {arr.shape}")
    if arr.shape[0] and not arr.shape[1]:
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
    the interval each dimension is cut in; ``u`` holds two uniforms in
    (0, 1) per box. q is the first dimension whose cumulative width exceeds
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


def _split_time(tau: np.ndarray, u: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The split times tau + -log1p(-u) / rate of nodes whose parents split at
    tau, each not above tau rounded up to the next float; overflow is inf."""
    with np.errstate(over="ignore"):  # a subnormal rate waits forever
        time = tau + -np.log1p(-u) / rate
    tied = np.flatnonzero(time <= tau)
    time[tied] = np.nextafter(tau[tied], np.inf)
    return time


# a box this large has an infinite rate: no waiting time and no cut
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


def _unnamed_file() -> int:
    """The descriptor of an unnamed read-write file: in memory where the OS
    has ``memfd_create``, an unlinked temporary file elsewhere."""
    if hasattr(os, "memfd_create"):
        return os.memfd_create("imondrian")
    fd, path = tempfile.mkstemp()
    os.unlink(path)
    return fd


def _transfer(call, fd: int, buffers, offset: int = 0) -> int:
    """Move every byte of ``buffers`` (C-contiguous arrays or buffers) to or
    from the file ``fd`` from ``offset`` on, by ``call``: ``os.pwritev`` or
    ``os.preadv``, as many times as it takes. Returns the byte count; raises
    EOFError if a read meets the end of the file first."""
    views = [view for view in (memoryview(b).cast("B") for b in buffers) if view.nbytes]
    total = sum(view.nbytes for view in views)
    while views:
        done = call(fd, views, offset)
        if not done:
            raise EOFError("a helper's file ended early")
        offset += done
        while done and done >= views[0].nbytes:
            done -= views.pop(0).nbytes
        if done:
            views[0] = views[0][done:]
    return total


# a job message: the CPU to run on and the byte length of the job's head; a
# reply: the byte count of the result, or -1 if the job raised
_JOB, _REPLY = struct.Struct("qq"), struct.Struct("q")


class _Helper:
    """A helper process as its caller holds it (see ``_fork_join``): its pid,
    the caller's ends of its job and reply pipes, and the unnamed file that
    jobs and results pass through."""

    def __init__(self, pid: int, jobs: int, replies: int, file: int):
        self.pid, self.jobs, self.replies, self.file = pid, jobs, replies, file

    def send(self, cpu: int, name: str, args: tuple) -> None:
        """Have the helper run this module's function ``name`` on ``args`` on
        CPU ``cpu``. The file gets the head, a pickle of the call's pickle
        (its arrays out of band) and of their byte counts, then the arrays'
        bytes; the pipe gets ``cpu`` and the head's length."""
        arrays = []
        call = pickle.dumps((name, args), protocol=5, buffer_callback=arrays.append)
        arrays = [array.raw() for array in arrays]
        head = pickle.dumps((call, [array.nbytes for array in arrays]))
        _transfer(os.pwritev, self.file, [head, *arrays])
        os.write(self.jobs, _JOB.pack(cpu, len(head)))

    def receive(self, out: list[np.ndarray]) -> bool:
        """Read the result of the job sent last into the arrays ``out``, in
        turn; False if the job raised or its result does not fit them.
        EOFError if the helper ended first."""
        reply = os.read(self.replies, _REPLY.size)
        if len(reply) != _REPLY.size:
            raise EOFError("a helper ended before its reply")
        if _REPLY.unpack(reply)[0] != sum(array.nbytes for array in out):
            return False
        _transfer(os.preadv, self.file, out)
        return True

    def alive(self) -> bool:
        """Whether the helper still runs; if it has exited, it is reaped."""
        try:
            return os.waitpid(self.pid, os.WNOHANG)[0] == 0
        except ChildProcessError:  # reaped elsewhere
            return False

    def close(self) -> None:
        """Close this process's ends of the helper's pipes and its file."""
        for fd in (self.jobs, self.replies, self.file):
            os.close(fd)

    def stop(self, kill: bool = False) -> None:
        """Close this process's ends, so that the helper reads EOF and exits,
        killing it first if ``kill`` (a helper that may be mid-job), and reap it."""
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
        self.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


class _Helpers:
    """This process's helpers: slot s holds the one that works on CPU s + 1
    of the affinity mask, or None. There is one set per process, since a
    helper is a forked copy of the process that made it; ``lock`` lets one
    call at a time use them."""

    def __init__(self):
        self.lock = threading.Lock()
        self.slots: list[_Helper | None] = []

    def ready(self, count: int) -> list[tuple[int, _Helper]]:
        """(slot, helper) for every slot of 0..count-1 that has a running
        helper; an empty slot is given a new one where ``_can_fork`` allows."""
        self.slots += [None] * (count - len(self.slots))
        forkable = None
        for slot, helper in enumerate(self.slots[:count]):
            if helper is not None and not helper.alive():  # killed between calls
                helper.close()
                helper = self.slots[slot] = None
            if helper is None:
                forkable = _can_fork() if forkable is None else forkable
                self.slots[slot] = _spawn() if forkable else None
        return [(slot, helper) for slot, helper in enumerate(self.slots[:count]) if helper is not None]

    def drop(self, slot: int) -> None:
        """Kill and reap the helper of ``slot``, which may be out of step."""
        self.slots[slot].stop(kill=True)
        self.slots[slot] = None

    def close(self) -> None:
        """Stop every helper: each reads EOF, exits and is reaped."""
        with self.lock:
            for helper in self.slots:
                if helper is not None:
                    helper.stop()
            self.slots.clear()


_HELPERS = _Helpers()


def _close_helpers() -> None:
    """Stop this process's helpers; it runs at interpreter exit."""
    _HELPERS.close()


def _forget_helpers() -> None:
    """In a forked child: close the parent's helper descriptors and start
    with none, so that the child makes its own helpers and the parent's
    still read EOF when the parent exits."""
    global _HELPERS
    for helper in _HELPERS.slots:
        if helper is not None:
            helper.close()
    _HELPERS = _Helpers()


atexit.register(_close_helpers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _spawn() -> _Helper | None:
    """Fork a helper (see ``_serve``), or return None if its file, a pipe or
    the fork raised OSError."""
    opened = []
    try:
        opened.append(_unnamed_file())
        opened += os.pipe()
        opened += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in opened:
            os.close(fd)
        return None
    file, jobs_in, jobs, replies, replies_out = opened
    if pid == 0:
        try:
            _serve(jobs_in, replies_out, file)
        finally:
            os._exit(0)
    os.close(jobs_in)
    os.close(replies_out)
    return _Helper(pid, jobs, replies, file)


def _serve(jobs: int, replies: int, file: int) -> None:
    """A helper's life. It keeps no descriptor of its caller's but its pipe
    ends ``jobs`` and ``replies`` and its ``file`` (0, 1 and 2 open
    /dev/null), so that a reader of the caller's output sees EOF when the
    caller exits, and leaves a terminal's interrupt to the caller. Then, for
    each job (see ``_Helper.send``), it binds itself to the job's CPU, runs
    it, writes the array or list of arrays it returns to the start of the
    file and replies with their byte count, or -1 if the job raised; it
    returns at EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    keep = sorted((jobs, replies, file))
    for low, high in zip([0] + [fd + 1 for fd in keep], keep + [os.sysconf("SC_OPEN_MAX")]):
        os.closerange(low, high)
    null = os.open(os.devnull, os.O_RDWR)
    for std in {0, 1, 2} - {null, *keep}:
        os.dup2(null, std)
    cpu = None
    while len(message := os.read(jobs, _JOB.size)) == _JOB.size:
        want, size = _JOB.unpack(message)
        try:
            if want != cpu:
                _pin({want})
                cpu = want
            head = bytearray(size)
            _transfer(os.preadv, file, [head])
            call, sizes = pickle.loads(head)
            arrays = [np.empty(n, dtype=np.uint8) for n in sizes]
            _transfer(os.preadv, file, arrays, size)
            name, args = pickle.loads(call, buffers=arrays)
            result = globals()[name](*args)
            done = _transfer(os.pwritev, file, [result] if isinstance(result, np.ndarray) else result)
        except Exception:  # the caller does the job again itself, where it raises
            done = -1
        os.write(replies, _REPLY.pack(done))


def _fork_join(count: int, lanes: int, floor: int, local, job, into) -> None:
    """Do items 0..count-1, ``lanes`` lanes of work in all, in contiguous
    blocks on every CPU of the affinity mask: one block per usable CPU, at
    most one per ``floor`` lanes and one per item. This process does the
    first block with ``local(a, b)``, which does items a..b-1, and a helper
    process each other block.

    A helper is forked by the first call that needs it, where ``_can_fork``
    allows, and lives until this process exits (see ``_Helpers``). Its
    memory is a copy of this process's from when it was forked, so a job
    carries all of its data: ``job(a, b)`` gives the name of a function of
    this module and its arguments, arrays and scalars, and the helper writes
    the array or arrays the function returns to its file, from which they
    are read into ``into(a, b)``, a list of arrays of the same sizes. Jobs
    go out before the first block is done and their results come back in
    order. A block goes to no helper, and the blocks are fewer, when one cannot be
    forked; it is done again by ``local`` when its job raised, its helper
    ended or the job could not be sent, so errors surface as they would in
    one process. A helper whose reply is not read, since this call raised
    first, is killed and reaped: it might answer a later call. With fewer
    than two blocks, no helper, or another thread using the helpers, this
    process does all the items itself with ``local(0, count)``.

    Each process is bound to its own CPU of the mask while it works, and
    the caller's mask is restored afterwards: on a 2-core VM the OS kept a
    new child on its parent's CPU for tens of milliseconds, so that unbound,
    a 2,048-point batch routed slower in two processes than in one.
    """
    cpus = _usable_cpus()
    workers = min(len(cpus), lanes // floor, count)
    helpers = _HELPERS
    if workers < 2 or not helpers.lock.acquire(blocking=False):
        local(0, count)
        return
    pending = {}  # block: slot of the helper whose reply is unread
    try:
        ready = helpers.ready(workers - 1)
        bounds = [count * w // (len(ready) + 1) for w in range(len(ready) + 2)]
        blocks = list(zip(bounds[1:-1], bounds[2:]))  # the helpers' blocks
        for (slot, helper), block in zip(ready, blocks):
            try:
                helper.send(cpus[slot + 1], *job(*block))
            except OSError:
                helpers.drop(slot)
                continue
            pending[block] = slot
        mask = _pin({cpus[0]}) if pending else None
        try:
            local(0, bounds[1])
        finally:
            if mask is not None:
                _pin(mask)
        for block in blocks:
            if block in pending:
                slot = pending[block]
                try:
                    done = helpers.slots[slot].receive(into(*block))
                except (EOFError, OSError):
                    helpers.drop(slot)
                    done = False
                del pending[block]
                if done:
                    continue
            local(*block)
    finally:
        for slot in pending.values():
            helpers.drop(slot)
        helpers.lock.release()


class Forest:
    """An isolation Mondrian forest: every tree packed into one
    structure-of-arrays arena.

    Every tree holds every point the forest took (its sample, then every
    arrival): ``total_population``, its count sum: only leaves count points,
    and an internal slot holds 0 like an unused one. An internal node's box
    is the union of its children's, bit for bit (points enter with their
    zero signs pinned to +0.0); ``_derive_inner`` rebuilds it.

    Each node field has shape ``(num_trees, capacity)`` (boxes add a
    ``dim`` axis); row t holds tree t. ``root``, ``size``, ``key`` and
    ``draws`` hold each tree's root, used slot count, key and count of
    uniforms drawn. Slots past a tree's size keep the unused-slot values.
    ``extend`` doubles the capacity of every row after its walk and before
    its race whenever some row has fewer than two free slots, the most one
    insert takes.

    The kernels move all trees down one depth level per numpy step: ``grow``
    builds the trees, ``route`` sums depths for a batch of points, and
    ``extend`` inserts one point into every tree. Tree t's next uniform is
    ``_uniforms(key[t], draws[t])``, and each kernel advances ``draws[t]``
    past the counters it used, so a tree depends on its key and the data
    alone, not on the other trees, on how trees are grouped or on which
    process builds them. A uniform u gives the waiting time -log1p(-u) /
    rate, the Exp(rate) clock of the Mondrian process (Roy & Teh 2008); in
    the build and extension alike a node's time is its parent's plus that
    wait, rounded up past the parent's where they tie (``_split_time``).

    ``grow`` builds every node of a depth in one pass over the trees of a
    group. A subsample comes from a generator seeded with the tree's key,
    which is not kept. The r-th node of a level to split in tree t, in slot
    order, takes counters draws[t] + 3r, 3r + 1 and 3r + 2, and no other:
    its clock, then its cut's dimension and value.

    ``extend`` is one body: walk, overflow check, regrow, race and write.
    Tree t's candidates are the k nodes on x's path with a positive
    deviation rate. Boxes nest, so they are the last k rows of its path,
    ``ends[t] - k .. ends[t] - 1``. With k = 0 the tree draws nothing and
    absorbs x; otherwise counters draws[t] .. draws[t] + k - 1 are their
    clocks, and a tree whose clock fired takes the next two for its cut;
    draws[t] advances by k + 2 whether a clock fired or not. The first
    candidate whose clock's time is below its own split time fires; by
    memorylessness the later clocks go unused, as in Mondrian-forest
    extension (Lakshminarayanan, Roy & Teh 2014). The rows before a tree's
    ``stop`` (its fired node, or ``ends[t]``) admit x to their boxes, and x
    is counted at the new leaf of a fired tree or at the leaf of any other.

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
    path is the root and every level at which that lane moved: rows
    ``starts[t] .. ends[t] - 1`` of the tree-major path arrays.
    """

    def __init__(self, num_trees: int, dim: int, capacity: int):
        self.dim = int(dim)
        self.root = np.full(num_trees, NO_NODE, dtype=np.int64)
        self.size = np.zeros(num_trees, dtype=np.int64)
        self.key, self.draws = (np.zeros(num_trees, dtype=np.uint64) for _ in range(2))
        for name, dtype, shape, fill in node_fields((num_trees, max(int(capacity), 1)), self.dim):
            setattr(self, name, np.full(shape, fill, dtype=dtype))
        self.child = np.tile(np.arange(self.population.size), 2)
        self._walked = None  # (x's bytes, _walk(x)) after route([x]); see extend

    @classmethod
    def grow(cls, X: np.ndarray, key, sample_size: int | None = None) -> Forest:
        """Build one tree per entry of the uint64 ``key`` on the validated
        (n, d) array ``X``: on ``sample_size`` rows drawn without replacement
        (see the class docstring), or on all of ``X`` when ``sample_size`` is
        None. Raises ValueError when a box's linear dimension overflows.

        A large forest is built on every CPU in the process's affinity mask,
        over contiguous blocks of trees (see ``_fork_join``): one worker per
        FORK_BUILD_LANES (tree, point) lanes, at most one per usable CPU and
        per tree. A helper's job is ``_grow_block``: it gets ``X``, its
        block's keys and the sample size, builds the block in an arena of its
        own and returns the block's rows of everything ``_rows`` lists, which
        are read straight into their place. This process allocates the arena
        only after any helper is forked, builds the first block in it, and
        reads the rest. A tree depends on its key alone (see the class
        docstring), so the forest is the one a single process builds, bit
        for bit.
        """
        key = np.array(key, dtype=np.uint64)
        n, d = X.shape
        m = n if sample_size is None else sample_size
        T, C = key.size, 2 * m - 1
        forest = None

        def local(a, b):
            nonlocal forest
            if forest is None:  # after any fork, so that no page of it is shared
                forest = cls(T, d, C)
                forest.key[:] = key
            forest._grow_trees(X, a, b, sample_size)

        _fork_join(T, T * m, FORK_BUILD_LANES, local,
                   lambda a, b: ("_grow_block", (X, key[a:b], sample_size, a)),
                   lambda a, b: forest._rows(a, b))
        return forest

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
                picks = [np.random.default_rng(k).choice(n, size=m, replace=False) for k in self.key[trees].tolist()]
                pts = X.T.take(np.concatenate(picks), axis=1)
            # a fresh array: -0.0 is read as +0.0, so that a box's zero bound
            # does not depend on how numpy's reductions pair signed zeros
            pts += 0.0
            self._grow_levels(trees, pts, m)

    def _rows(self, a: int, b: int) -> list[np.ndarray]:
        """Contiguous views of everything ``grow`` writes for trees a..b-1:
        their rows of each node field, of each side of ``child``, of
        ``root``, ``size`` and ``draws``."""
        kids = self.child.reshape(2, self.num_trees, -1)
        fields = [getattr(self, name)[a:b] for name in FIELD_NAMES]
        return fields + [kids[0, a:b], kids[1, a:b], self.root[a:b], self.size[a:b], self.draws[a:b]]

    def _grow_levels(self, trees: np.ndarray, pts: np.ndarray, m: int) -> None:
        """Build trees ``trees`` (ascending) on the feature-major (d, N)
        ``pts``, whose columns are each tree's m points in turn.

        Each open node owns a contiguous segment of columns; segments are in
        (tree, slot) order. One pass per depth level:
        1. boxes and point counts of the open nodes, by segment min/max;
        2. nodes with one point or a zero-width box stay leaves and their
           points drop out; the rest draw split times and cuts, and those
           whose split time is not finite stay leaves too; the nodes that
           split drop their counts;
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
            # each tree's split count, and each split's rank in its tree
            count = np.bincount(t, minlength=self.num_trees)
            rank = np.arange(t.size) - (np.cumsum(count) - count).take(t)
            at = self.draws.take(t) + np.uint64(3) * rank.astype(np.uint64)  # each node's first counter
            u = _uniforms(self.key.take(t)[:, None], at[:, None] + np.arange(3, dtype=np.uint64))
            self.draws += np.uint64(3) * count.astype(np.uint64)
            time = _split_time(seg_tau[split], u[:, 0], rate)
            # a subnormal rate can push the split time to infinity, a leaf's
            # time: such a node stays a leaf, with its draws spent
            finite = np.isfinite(time)
            if not finite.all():
                split, t, rate, time, u = (a[finite] for a in (split, t, rate, time, u))
                count = np.bincount(t, minlength=self.num_trees)
                rank = np.arange(t.size) - (np.cumsum(count) - count).take(t)
            q, p = _cut(lo.take(split, axis=0), hi.take(split, axis=0), widths.take(split, axis=0), rate, u[:, 1:])
            flat = flat[split]
            self._flat("population")[flat] = 0
            self._flat("split_dim")[flat] = q
            self._flat("split_val")[flat] = p
            self._flat("split_time")[flat] = time
            # 3. children in the next slots of each tree, left before right
            kid_l = self.size.take(t) + 2 * rank
            self.size += 2 * count
            self.child[flat] = t * C + kid_l
            self.child[TC + flat] = t * C + kid_l + 1
            # the stable partition: each split node's points, left side first
            rank = np.full(seg_len.size, -1)
            rank[split] = np.arange(split.size)
            lane_seg = np.repeat(rank, seg_len)
            keep = np.flatnonzero(lane_seg >= 0)
            lane_seg = lane_seg.take(keep)
            go_right = pts.ravel().take(q.take(lane_seg) * pts.shape[1] + keep) >= p.take(lane_seg)
            kid_seg = 2 * lane_seg + go_right  # each point's child, in the children's order
            key = kid_seg.astype(np.uint16) if 2 * split.size <= 1 << 16 else kid_seg  # 16-bit keys radix-sort
            pts = pts.take(keep.take(np.argsort(key, kind="stable")), axis=1)
            seg_len = np.bincount(kid_seg, minlength=2 * split.size)
            seg_tree = np.repeat(t, 2)
            seg_node = np.column_stack((kid_l, kid_l + 1)).ravel()
            seg_tau = np.repeat(time, 2)

    @property
    def num_trees(self) -> int:
        return self.root.size

    @property
    def capacity(self) -> int:
        return self.population.shape[1]

    @property
    def total_population(self) -> int:
        """Points each tree holds (its sample plus every arrival), its leaves'
        count sum: the n of the score's c(n)."""
        return int(self.population[0].sum())

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
        over contiguous blocks of points (see ``_fork_join``): one worker per
        FORK_LANES (tree, point) lanes, at most one per usable CPU and per
        point. Every block reads the one set of tables ``_route_tables``
        builds, and a helper's job, ``_route_block``, carries its block's
        points and those tables. The split is by points, not trees, so each
        point's sum is taken by one process in tree order, bit for bit the
        one-process sum.

        A one-point batch is walked as ``extend`` walks (``_walk``), its
        depths added in tree order one at a time, bit for bit as in
        ``_route_block``; the walk is left, keyed by the point's bytes, for
        the next ``extend``.
        """
        n = X.shape[0]
        if n == 1:  # walked as extend walks, and left for its extend
            self._walked = ((X[0] + 0.0).tobytes(), self._walk(X[0]))  # keyed as extend pins x
            _, path_flat, starts, ends = self._walked[1]
            depth = ends - 1 - starts + leaf_depth(self._flat("population").take(path_flat.take(ends - 1)))
            return np.add.accumulate(depth)[-1:]
        depth_sum = np.empty(n)
        tables = self._route_tables(leaf_depth)

        def local(a, b):
            depth_sum[a:b] = _route_block(X[a:b], *tables)

        _fork_join(n, n * self.num_trees, FORK_LANES, local,
                   lambda a, b: ("_route_block", (X[a:b], *tables)),
                   lambda a, b: [depth_sum[a:b]])
        return depth_sum

    def _route(self, X: np.ndarray, leaf_depth) -> np.ndarray:
        """``route`` in this process."""
        return _route_block(X, *self._route_tables(leaf_depth))

    def _route_tables(self, leaf_depth) -> tuple[np.ndarray, ...]:
        """What ``_route_block`` reads of the forest: the flat ``split_dim``
        and ``split_val``, ``child``, ``root``, and each flat node's scoring
        depth, its ``_node_depths`` entry, to which a forest with a leaf of
        two or more points adds ``leaf_depth`` of its population as float64.
        """
        depth = self._node_depths()
        if self.population.max() > 1:
            depth = depth + leaf_depth(self._flat("population"))
        return self._flat("split_dim"), self._flat("split_val"), self.child, self.root, depth

    def _levels(self):
        """Each depth's internal nodes, roots' depth first, with their left
        and right children, as flat indices: a level walk over ``child``."""
        TC = self.population.size
        level = np.arange(self.num_trees) * self.capacity + self.root
        while True:
            left = self.child.take(level)
            inner = np.flatnonzero(left != level)  # a leaf is its own child
            if not inner.size:
                return
            node, left = level.take(inner), left.take(inner)
            right = self.child.take(node + TC)
            yield node, left, right
            level = np.concatenate((left, right))

    def _node_depths(self) -> np.ndarray:
        """Each flat node's edge count from its tree's root (0 if unused), in
        the smallest int type holding the capacity."""
        depth = np.zeros(self.population.size, dtype=np.min_scalar_type(self.capacity))
        for edges, (_, left, right) in enumerate(self._levels(), 1):
            depth[left] = depth[right] = edges
        return depth

    def _derive_inner(self) -> None:
        """Set every internal node's box to the union of its children's, one
        gather per level, deepest level first."""
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        for node, left, right in reversed(list(self._levels())):
            box_min[node] = np.minimum(box_min.take(left, axis=0), box_min.take(right, axis=0))
            box_max[node] = np.maximum(box_max.take(left, axis=0), box_max.take(right, axis=0))

    def extend(self, x: np.ndarray) -> None:
        """Insert one validated point into every tree.

        x's zero coordinates are read as +0.0.
        1. walks x down every tree at once, or takes the walk ``route`` left
           for x (every call clears it). Then raises ValueError, with the
           arena unchanged, if a rate would overflow in some tree (every box
           on x's path lies inside the root's box enlarged to admit x), and
           doubles the capacity if some row has fewer than two free slots,
           moving the path's flat indices as the child table's move;
        2. races: every deviation rate on the paths at once, every clock
           hashed at once (see the class docstring), and each tree's first
           firing candidate;
        3. writes: the nodes passed before the clock fired that x lies
           outside of (a positive rate) enlarge their boxes to it; a new
           internal node and a leaf for x are spliced above each node where
           a clock fired, and every other tree counts x at its leaf.
        """
        walked, self._walked = self._walked, None
        x = x + 0.0  # a fresh array: -0.0 is read as +0.0, as the build reads it
        T, C = self.population.shape

        # 1. walk, overflow check and regrow
        path_tree, path_flat, starts, ends = walked[1] if walked and walked[0] == x.tobytes() else self._walk(x)
        roots = path_flat.take(starts)
        _check_rates_finite(self._flat("box_min")[roots], self._flat("box_max")[roots], x)
        if self.size.max() + 2 > C:
            self._double()  # a doubled row always has room for two more
            path_flat = path_flat + path_flat // C * (self.capacity - C)  # as _double moves child entries
            C = self.capacity
        TC = T * C
        box_min, box_max = self._flat("box_min"), self._flat("box_max")
        population = self._flat("population")

        # 2. race: rates and parent times on every path node. The candidates
        # are the nodes with a positive rate; boxes nest, so a tree's k
        # candidates are the last k rows of its path, and its clock j is
        # counter draws + j
        lo, hi = box_min.take(path_flat, axis=0), box_max.take(path_flat, axis=0)
        dev = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        rate = dev.sum(axis=1)
        node_time = self._flat("split_time").take(path_flat)
        tau = np.empty_like(node_time)
        tau[1:] = node_time[:-1]
        tau[starts] = 0.0  # roots have parent time 0
        cand = np.flatnonzero(rate > 0.0)
        cand_tree = path_tree.take(cand)
        k = np.bincount(cand_tree, minlength=T)
        rank = (cand - (ends - k).take(cand_tree)).astype(np.uint64)
        clock = _uniforms(self.key.take(cand_tree), self.draws.take(cand_tree) + rank)
        fire_at = _split_time(tau.take(cand), clock, rate.take(cand))
        hit = np.flatnonzero(fire_at < node_time.take(cand))
        hit = hit.take(np.unique(cand_tree.take(hit), return_index=True)[1])  # each tree's first firing
        fired = cand.take(hit)  # its position on the path
        t = cand_tree.take(hit)
        cut_at = self.draws.take(t) + k.take(t).astype(np.uint64)  # a fired tree's cut: draws + k and + 1
        cut_u = _uniforms(self.key.take(t)[:, None], cut_at[:, None] + np.arange(2, dtype=np.uint64))
        self.draws += (k + 2 * (k > 0)).astype(np.uint64)

        # 3. write: the nodes before each tree's stop (its fired node, or the
        # end of its path) admit x, and an unfired tree's leaf counts it
        stop = ends.copy()
        stop[t] = fired
        population[path_flat.take(np.delete(ends, t) - 1)] += 1
        moved = cand[cand < stop.take(cand_tree)]
        box_min[path_flat.take(moved)] = np.minimum(lo.take(moved, axis=0), x)
        box_max[path_flat.take(moved)] = np.maximum(hi.take(moved, axis=0), x)
        if not fired.size:
            return
        # a new internal node above each fired node, cut between its box and
        # x on a deviating dimension, with a new leaf for x as its other child
        node, up = path_flat.take(fired), path_flat.take(fired - 1)
        node_min, node_max = lo.take(fired, axis=0), hi.take(fired, axis=0)
        over = x > node_max
        gap = np.where(over, node_max, x), np.where(over, x, node_min)  # each dim's interval
        q, p = _cut(*gap, dev.take(fired, axis=0), rate.take(fired), cut_u)
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
        self.child[inner] = np.where(above, node, leaf)
        self.child[TC + inner] = np.where(above, leaf, node)
        at_root = fired == starts.take(t)
        self.root[t[at_root]] = internal[at_root]
        up, node, inner = up[~at_root], node[~at_root], inner[~at_root]
        self.child[(self.child.take(up) != node) * TC + up] = inner

    def _walk(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Phase 1 of ``extend``: the path of x in every tree as tree-major
        tree and flat node indices, and where each tree's path starts (its
        root) and ends (one past its leaf) on it. A parked lane loops on its
        leaf; each tree's path is its root and every level at which its lane
        moved."""
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
        ends = np.cumsum(length)
        return np.repeat(np.arange(T), length), walk.T[on_path.T], ends - length, ends


def _grow_block(X: np.ndarray, key: np.ndarray, sample_size: int | None, first: int) -> list[np.ndarray]:
    """A helper's share of ``Forest.grow``: the trees of keys ``key``, trees
    first.. of the forest, built on ``X`` in an arena of their own; returns
    the block's ``_rows``, its links as flat indices of the whole forest."""
    m = X.shape[0] if sample_size is None else sample_size
    part = Forest(key.size, X.shape[1], 2 * m - 1)
    part.key[:] = key
    part._grow_trees(X, 0, key.size, sample_size)
    part.child += first * part.capacity
    return part._rows(0, key.size)


def _route_block(X: np.ndarray, split_dim: np.ndarray, split_val: np.ndarray, child: np.ndarray,
                 root: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """``Forest.route`` of the validated (n, d) ``X`` in this process, from
    the forest's ``_route_tables``. Lanes are (tree, point) pairs in
    tree-major order, routed about ROUTE_LANES at a time so memory stays
    flat, and carry only their lane number, node and point. Points are read
    feature-major, so lanes at one node read one column, and a pass numbers
    its trees' nodes from 0. A parked lane loops on its leaf, so only every
    second level checks for movement; the walk ends when none moved. Once
    half of the lanes have parked, every lane's node is recorded, to be
    overwritten later for the lanes still moving, and those are gathered by
    index (a boolean mask cost 7 ns per element per array, ``flatnonzero``
    and ``take`` 2). Each lane's scoring depth is then read off ``depth`` at
    its leaf.

    Integer depths are edge counts and sum exactly; float64 depths (a
    forest with a leaf of two or more points) are summed tree by tree in
    tree order, so that a point's sum does not depend on the batch it is in.
    """
    n = X.shape[0]
    T = root.size
    C = split_val.size // T
    kids = child.reshape(2, -1)
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
            node = np.repeat(np.arange(k) * C + root[t0 : t0 + k], m)
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
            lane_depth = depth[a : a + width].take(leaf[: k * m]).reshape(k, m)
            if depth.dtype.kind != "f":
                acc += lane_depth.sum(axis=0)
                continue
            for row in lane_depth:
                acc += row
        del xt  # before the next block's copy, so one transposed block is held at a time
    return depth_sum
