"""Explicit four-level finite-difference form of the D1Q3 MRT diffusion model.

Eliminating the distribution functions from the mesoscopic update yields a
single explicit recurrence for the macroscopic field on four time levels:

    phi[j, n+1] = side_n    * (phi[j-1, n]   + phi[j+1, n])
                + center_n  *  phi[j, n]
                + side_nm1  * (phi[j-1, n-1] + phi[j+1, n-1])
                + center_nm1 * phi[j, n-1]
                + center_nm2 * phi[j, n-2]
                + source * dt * R

with stencil weights that are polynomials in (omega0, s1, s2).  The weights
sum to one, so constants are preserved; `coefficients` takes center_n as one
minus the correctly rounded sum of the others, since weights rounded one by
one would rescale the field's mean by a few ulps every step.  With
s1 = s2 = 1 the three history levels drop out and the classical two-level
central scheme with mesh Fourier number epsilon = (1 - omega0)/2 remains.

`step`, `run` and the mesoscopic equivalence check share one kernel.  A
batch of levels is one contiguous 1-D row of cases x nodes, and the kernel
writes the new level with in-place numpy operations on the 1-D slices
[lo:hi], [lo+1:hi+1] and [lo+2:hi+2] of that row, adding the terms in the
order written above, so a level gets the same bits whether it is marched
alone or as one row of a batch.  The pair sum phi[j-1, n] + phi[j+1, n]
that level n+1 needs is, rounded alike, the level n-1 pair of level n+2, so
the kernel keeps it in an array from one step to the next and a pass makes
eleven numpy calls, not twelve, or ten when every row's source term is
+-0.0, as on the paper's tables: one add of the zero term to the level
returned then restores the sign of its exact zeros, the only bits that
the add sets.  A march (`run` and the tables) also leaves out the multiply
and the add of each history weight that is +-0.0 in every row of a stage,
so a pass of the tables makes four calls at second order (s1 = s2 = 1,
two levels) and six at fourth (s1 = 1, three levels).  A left-out w*x,
w = +-0.0, changes a sum only in the sign of a zero, or by the NaN it
makes of a non-finite x.  So a group skips only from finite start levels
and when no row's source term is -0.0, and is marched again on the full
plan if its result holds a non-finite value.  Else every level was
finite, as a non-finite node stays so through the center_n multiply, so
the two plans made the same values but for the signs of zeros, which
either plan's last add of a level (x + 0.0, or x + c with c nonzero), or
the read-out's add of +0.0, settles alike.
`step`, whose time goes to planning, and the check plan every weight,
zero or not, so they make all ten calls.  Every row has Dirichlet ends,
and the passes also cover the seam nodes between rows, which pinning
overwrites.  The periodic four-level form is the one of
`lbm.fd_equivalence_deviation`, which plans this kernel over rows with a
ghost node at either end that holds its periodic neighbour: a window of
short rows in one flat pass, a long row alone.

Long rows are cut into passes of `_CHUNK` nodes, and every output of a
pass starts a 64-byte cache line.  The levels rotate through four buffers:
level n+1 overwrites level n-3, which no pass reads any more.  `_plan`
builds the calls of all four phases once per stage, as one list per
worker and phase, and a march makes them one level at a time.  A stage
that `_may_fork` shares its passes between the caller and forked children
(`_advance`).  Every node gets the same calls in the same order whichever
worker makes them, so the bits do not depend on the CPU count.  `step`
and the equivalence check make their passes in one process: the caller's,
or for the check's long rows a forked child's (see `lbm`).

`run` is the one-row case of the staged march `_march`, in which the
convergence tables march all of their spacings at once.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import select
import signal
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, cycle, islice

import numpy as np

from .calibration import ModelParams, check_box
from .errors import DomainError


@dataclass(frozen=True)
class FdCoefficients:
    """Stencil weights of the four-level update, named by position:
    (side, center) at the current level n, (side, center) at level n-1,
    center at level n-2, and the source weight."""

    side_n: float
    center_n: float
    side_nm1: float
    center_nm1: float
    center_nm2: float
    source: float


def coefficients(omega0: float, s1: float, s2: float) -> FdCoefficients:
    """Stencil weights implied by (omega0, s1, s2).

    Four weights are the rounded polynomials; center_n, whose polynomial is
    (omega0 - 1)*s2 + 1, is computed as one minus the math.fsum of the other
    weights (side weights counted twice), so the exact sum of the returned
    field weights is one to within one rounding.
    """
    check_box(omega0, s1, s2)
    side_n = 1.0 - s1 / 2.0 - omega0 * s2 / 2.0
    side_nm1 = (omega0 * s1 * s2 / 2.0 - s1 * s2 / 2.0 - omega0 * s2 / 2.0
                + s1 / 2.0 + s2 - 1.0)
    center_nm1 = -omega0 * s1 * s2 + omega0 * s2 + s1 - 1.0
    center_nm2 = (s1 - 1.0) * (s2 - 1.0)
    center_n = 1.0 - math.fsum((2.0 * side_n, 2.0 * side_nm1, center_nm1,
                                center_nm2))
    return FdCoefficients(side_n=side_n, center_n=center_n,
                          side_nm1=side_nm1, center_nm1=center_nm1,
                          center_nm2=center_nm2, source=s1 * s2)


# Upper bound on the intervals of a grid.  A march holds about six float64
# arrays of the node count: 2**22 intervals keep that near 200 MB.
_MAX_INTERVALS = 2 ** 22


@dataclass(frozen=True)
class Grid1D:
    """Nodes j*dx of [0, 1], dx = 1/n_intervals, j = 0..n_intervals."""

    n_intervals: int
    dx: float = field(init=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "n_intervals",
                               operator.index(self.n_intervals))
        except TypeError:
            raise DomainError(f"n_intervals must be an integer, got "
                              f"{self.n_intervals!r}") from None
        if self.n_intervals < 2:
            raise DomainError("need at least 2 intervals")
        if self.n_intervals > _MAX_INTERVALS:
            # A count past 15 digits (1/dx at dx = 1e-300) is shown to three.
            count = self.n_intervals
            if count >= 10 ** 15:
                count = f"{count:.3g}" if count < 1e308 else "over 1e+308"
            raise DomainError(f"{count} intervals exceed the "
                              f"{_MAX_INTERVALS} a grid may hold")
        object.__setattr__(self, "dx", 1.0 / self.n_intervals)

    def nodes(self) -> np.ndarray:
        nodes = np.arange(self.n_intervals + 1, dtype=float)
        nodes *= self.dx
        return nodes


@dataclass(frozen=True)
class BoundarySpec:
    """The fixed (Dirichlet) end values of a row, the one boundary form of
    the four-level scheme; they must be finite (else `DomainError`)."""

    left_value: float
    right_value: float

    def __post_init__(self):
        if not (math.isfinite(self.left_value)
                and math.isfinite(self.right_value)):
            raise DomainError("boundary values must be finite")

    @classmethod
    def dirichlet(cls, left: float, right: float) -> "BoundarySpec":
        return cls(left, right)


class PhiHistory:
    """Ring buffer of the three most recent field levels, oldest first.

    Levels rotate by index on push; arrays are never copied.  A pushed
    level must have the shape of the others (else `DomainError`).
    """

    def __init__(self, levels: list[np.ndarray]):
        if len(levels) != 3:
            raise DomainError("a history holds exactly three levels")
        shape = np.shape(levels[0])
        if len(shape) != 1 or any(np.shape(lv) != shape for lv in levels):
            raise DomainError("history levels must share one 1-D shape")
        if shape[0] < 2:
            raise DomainError("a history level needs its two end nodes")
        self._levels = list(levels)

    @classmethod
    def from_levels(cls, phi_nm2, phi_nm1, phi_n) -> "PhiHistory":
        return cls([np.asarray(phi_nm2), np.asarray(phi_nm1),
                    np.asarray(phi_n)])

    @property
    def current(self) -> np.ndarray:
        return self._levels[2]

    def push(self, new_level: np.ndarray) -> np.ndarray:
        if np.shape(new_level) != self._levels[2].shape:
            raise DomainError(f"a level of shape {np.shape(new_level)} does "
                              f"not fit a history of shape "
                              f"{self._levels[2].shape}")
        self._levels[0], self._levels[1], self._levels[2] = (
            self._levels[1], self._levels[2], new_level)
        return new_level


# Nodes per pass of the kernel, whose work arrays then stay in cache from
# one call of the pass to the next (BENCH_11.json
# `chunk_and_depth_remeasured`, measured at two levels per sweep).
_CHUNK = 2 ** 15

# Upper bound on the node-steps (nodes x time levels) of one group of a
# march: minutes of marching (BENCH_14.json `in_process`), from a t_end, dx
# or step count that nobody means to wait for, which would otherwise hang.
_MAX_NODE_STEPS = 2 ** 36

# Bytes per cache line; an output that straddles lines slows a pass
# (BENCH_11.json `in_process_march_ns_per_node_step`).
_LINE = 64


def _aligned(n: int, lead: int = 0, dtype=np.float64) -> np.ndarray:
    """A new array of `n` elements whose element `lead` starts a cache
    line: a view into an over-allocated byte buffer."""
    itemsize = np.dtype(dtype).itemsize
    buf = np.empty(n * itemsize + _LINE, np.uint8)
    return np.frombuffer(buf, dtype, n,
                         -(buf.ctypes.data + lead * itemsize) % _LINE)


def _weight_row(coeffs: FdCoefficients, dt: float, R: float) -> tuple:
    # The five field weights in stencil order, then the finite source term.
    term = coeffs.source * dt * R
    if not math.isfinite(term):
        raise DomainError(f"the source term source*dt*R is {term}")
    return (coeffs.side_n, coeffs.center_n, coeffs.side_nm1,
            coeffs.center_nm1, coeffs.center_nm2, term)


def _add_zero_terms(block, table: list) -> None:
    # Add each row's zero source term once to the nodes that its passes
    # wrote: x + 0.0 is x but at -0.0 and x + -0.0 is x, so this idempotent
    # add gives the bits of adding the term at every step.
    for row, weights in zip(block, table):
        if not weights[5]:
            np.add(row[1:-1], weights[5], out=row[1:-1])


def _blocks(buf: np.ndarray, layout: list) -> list:
    """The (rows, nodes) views of the blocks that `layout` lists, which lie
    one after the other at the start of the flat `buf`."""
    blocks, start = [], 0
    for rows, nodes in layout:
        blocks.append(buf[start:start + rows * nodes].reshape(rows, nodes))
        start += rows * nodes
    return blocks


def _cpus() -> int:
    """The number of CPUs that this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Node-steps (nodes x levels) from which a march's stage or the equivalence
# check forks: a fork and the reaping of its child cost 3-4 ms whatever the
# steps, more than shorter work gains (BENCH_25.json `fork_break_even`).
_FORK_NODE_STEPS = 2 ** 21

# Seconds that a read of a hand-off byte spins before it sleeps in `poll`
# (BENCH_27.json `knock_outs`).
_SPIN_S = 1e-4


def _may_fork(node_steps: int) -> bool:
    """Whether work of `node_steps` node-steps may use forked children: it
    takes `_FORK_NODE_STEPS` or more, `os.fork` exists, the process may run
    on two or more CPUs, no other thread runs (a child would copy its held
    locks) and SIGCHLD is not ignored (the kernel would reap a child)."""
    return (node_steps >= _FORK_NODE_STEPS and hasattr(os, "fork")
            and _cpus() > 1 and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN)


def _shared(n: int) -> np.ndarray:
    """`n` zeroed float64s in an anonymous map that forked children share;
    element 1 starts a cache line, as a map starts a page."""
    return np.frombuffer(mmap.mmap(-1, 8 * n + _LINE), np.float64, n,
                         _LINE - 8)


def _take(fd: int, size: int = 1) -> bytes:
    """Up to `size` bytes from the non-blocking pipe end `fd`; b"" at EOF."""
    spin = time.perf_counter() + _SPIN_S
    while True:
        try:
            return os.read(fd, size)
        except BlockingIOError:
            if time.perf_counter() > spin:
                waiting = select.poll()
                waiting.register(fd, select.POLLIN)
                waiting.poll()


def _forked(children: list, parent):
    """`parent(ends)`, while each of `children` runs in a forked child as
    child(r, w), with the ends of its pipes from and to the parent; ends[i]
    is the parent's (r, w) of child i.  Read ends are non-blocking, for
    `_take`.  Every process runs under the caller's numpy error settings
    with each event that they do not ignore raised.  However this ends,
    every child is killed and reaped and every pipe end closed."""
    strict = {kind: "ignore" if mode == "ignore" else "raise"
              for kind, mode in np.geterr().items()}
    fds, ends, pids = [], [], []
    try:
        for child in children:
            fds += os.pipe()
            fds += os.pipe()
            down_r, down_w, up_r, up_w = fds[-4:]
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in fds[:-4] + [down_w, up_r]:
                        os.close(fd)
                    os.set_blocking(down_r, False)
                    with np.errstate(**strict):
                        child(down_r, up_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            fds[-4:] = [down_w, up_r]
            os.close(down_r)
            os.close(up_w)
            os.set_blocking(up_r, False)
            ends.append((up_r, down_w))
        with np.errstate(**strict):
            return parent(ends)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _pass_calls(cur, prev_m, old_m, acc, pair, term, part, weights) -> list:
    # The recurrence at the mid views of one pass as in-place ufunc calls,
    # in the order of the module docstring: ten, less the multiply and the
    # add of each weight that is None, as `_plan` leaves them out.  `pair`
    # holds prev_l + prev_r from the pass that wrote the previous level,
    # and leaves with cur_l + cur_r.
    cur_l, cur_m, cur_r = cur
    side_n, center_n, side_nm1, center_nm1, center_nm2, src = weights
    mul, add = np.multiply, np.add
    calls = [(add, (cur_l, cur_r, pair)),
             (mul, (pair, side_n, acc)),
             (mul, (cur_m, center_n, part)),
             (add, (acc, part, acc))]
    if side_nm1 is not None:
        calls = [(mul, (pair, side_nm1, term)), *calls,
                 (add, (acc, term, acc))]
    for level, weight in ((prev_m, center_nm1), (old_m, center_nm2)):
        if weight is not None:
            calls += [(mul, (level, weight, part)), (add, (acc, part, acc))]
    if src is not None:
        calls.append((add, (acc, src, acc)))
    return calls


def _plan(ring: list, outs: list, table, ends: tuple, layout: list,
          scratch=None, skip: bool = False, workers: int = 1) -> list:
    """The calls of a march's phases, one list per worker and phase, with
    the carried pair seeded.

    `ring` holds flat level buffers of the blocks that `layout` lists;
    phase k reads old, prev and cur from ring[k], ring[k+1] and ring[k+2]
    (indices mod len(ring)) and writes the next level into outs[k].  The
    flat passes of `_CHUNK` nodes are cut into at most `workers` contiguous
    runs, one per worker, which differ in length by one pass at most.
    runs[w][k] of the result holds the (function, args) calls of worker w in
    phase k: those of its passes, in node order, then one `put` that pins
    every end node of its run of nodes (the first run from node 0, the last
    to the row's end) to the (left, right) values `ends`.  A pass computes
    an end only as a value that the put overwrites, and no pass reads the
    level that its phase writes, so this has the bits of pinning each end
    once, and no node is written by two workers.  The pair sum prev_l +
    prev_r is carried in one array from phase to phase, so the phases must
    run in order, from phase 0; it starts as the pair of ring[1], the same
    addition that the step which wrote ring[2] made.  `table` has one
    `_weight_row` per row of `layout`: a single row's weights become 0-d
    arrays of the levels' dtype, which a ufunc takes faster than Python
    floats and rounds alike, and a batch repeats each column over the
    nodes of each row, once; source terms that are all +-0.0 are left out
    (see `_add_zero_terms`).  With `skip`, which only `_march` sets, so is
    each history weight (side_nm1, center_nm1, center_nm2) that is +-0.0 in
    every row, with its add.  The outputs must not overlap the levels a
    phase reads, and its passes write whole cache lines when the outputs
    start one at node 1.  The pair, as long as the interior, and each
    worker's two work arrays, as long as a pass, are carved from one block,
    each starting a line, unless `scratch` gives the pair and one worker's
    two, of the levels' dtype and free while a phase runs.  Plans that are
    given one pair hand it on from the last phase that one makes to the
    first of the next.
    """
    dtype = outs[0].dtype
    size = outs[0].shape[0]
    interior = size - 2
    line = _LINE // dtype.itemsize
    sizes = [n for rows, n in layout for _ in range(rows)]
    end_nodes = np.array([j for lo, n in zip(accumulate([0, *sizes]), sizes)
                          for j in (lo, lo + n - 1)])
    end_values = np.array(ends * len(sizes), dtype)
    # The columns left out, as None: a source term that is +-0.0 in every
    # row and, with `skip`, such a history weight.
    gone = [(k == 5 or (skip and k > 1)) and not any(w[k] for w in table)
            for k in range(6)]
    if len(table) > 1:
        columns = np.repeat(np.array(table).T, sizes, axis=1)
    else:
        row = tuple(None if g else np.array(w, dtype)
                    for g, w in zip(gone, table[0]))
    # The passes as (lo, hi, weights), at least one.  A pass writes the mid
    # nodes lo+1 .. hi from the 1-D slices [lo:hi], [lo+1:hi+1] and
    # [lo+2:hi+2].
    bounds = [(lo, min(lo + _CHUNK, interior))
              for lo in range(0, max(interior, 1), _CHUNK)]
    passes = [(lo, hi, row if len(table) == 1 else
               tuple(None if g else c[lo + 1:hi + 1]
                     for g, c in zip(gone, columns)))
              for lo, hi in bounds]
    workers = min(workers, len(passes))
    cuts = [len(passes) * w // workers for w in range(workers + 1)]
    # The first end node of each worker's run of nodes, which starts at the
    # first node that the worker writes, then the number of end nodes.
    at = np.searchsorted(end_nodes, [0, *(bounds[c][0] + 1
                                          for c in cuts[1:-1]), size])
    if scratch is None:
        # The pair and the work arrays, rounded up to whole cache lines.
        lead = -(-interior // line) * line
        wide = -(-(bounds[0][1] - bounds[0][0]) // line) * line
        block = _aligned(lead + 2 * workers * wide, 0, dtype)
        scratch = (block[:interior],
                   *(block[lead + k * wide:lead + (k + 1) * wide]
                     for k in range(2 * workers)))
    pair, *work = scratch
    np.add(ring[1][:-2], ring[1][2:], pair)
    runs = []
    for a, b, p, q, term, part in zip(cuts, cuts[1:], at, at[1:], work[::2],
                                      work[1::2]):
        runs.append([])
        for k, out in enumerate(outs):
            old, prev, cur = (ring[(k + i) % len(ring)] for i in range(3))
            calls = []
            for lo, hi, weights in passes[a:b]:
                calls += _pass_calls(
                    (cur[lo:hi], cur[lo + 1:hi + 1], cur[lo + 2:hi + 2]),
                    prev[lo + 1:hi + 1], old[lo + 1:hi + 1],
                    out[lo + 1:hi + 1], pair[lo:hi], term[:hi - lo],
                    part[:hi - lo], weights)
            runs[-1].append(calls + [(out.put, (end_nodes[p:q],
                                                end_values[p:q]))])
    return runs


def _advance(runs: list, n_levels: int) -> int:
    """Make up to `n_levels` levels of a stage planned by `_plan`, level i
    with the calls runs[w][i % 4] of every worker w; return how many every
    worker made.  Worker 0 is the caller and each other a forked child
    (`_forked`) on levels in shared maps, which sends a byte after each
    level and gets one back once every worker has made it.  A
    floating-point event, or a failure of a fork or a child, stops every
    worker within the same level, so the three levels before it are whole.
    """
    levels = islice(cycle(runs[0]), n_levels)
    if len(runs) == 1:
        for calls in levels:
            for fn, args in calls:
                fn(*args)
        return n_levels
    done = 0

    def lead(ends):
        nonlocal done
        for calls in levels:
            for fn, args in calls:
                fn(*args)
            if not all(_take(r) for r, _ in ends):
                return
            for _, w in ends:
                os.write(w, b"\0")
            done += 1

    try:
        _forked([partial(_follow, phases, n_levels) for phases in runs[1:]],
                lead)
    except (FloatingPointError, OSError):
        pass
    return done


def _follow(phases: list, n_levels: int, r: int, w: int) -> None:
    # A forked worker of `_advance`.
    for calls in islice(cycle(phases), n_levels):
        for fn, args in calls:
            fn(*args)
        os.write(w, b"\0")
        _take(r)


def step(history: PhiHistory, coeffs: FdCoefficients, dt: float, R: float,
         boundary: BoundarySpec) -> np.ndarray:
    """Advance the four-level recurrence by one time level.

    The new level is a freshly allocated array; it is pushed into the
    history and returned.  The end nodes are pinned to the Dirichlet
    boundary values.  A non-finite or non-positive dt, or a non-finite R or
    source term source*dt*R raises DomainError.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    levels = history._levels
    out = np.empty(levels[0].shape, np.result_type(*levels, 1.0))
    table = [_weight_row(coeffs, dt, R)]
    ends = boundary.left_value, boundary.right_value
    ((calls,),) = _plan(levels, [out], table, ends, [(1, out.size)])
    for fn, args in calls:
        fn(*args)
    _add_zero_terms([out], table)
    return history.push(out)


def _check_node_steps(nodes: int, steps: float) -> None:
    """Raise DomainError when nodes x steps exceeds _MAX_NODE_STEPS."""
    if not nodes * steps <= _MAX_NODE_STEPS:
        raise DomainError(f"{nodes} nodes x {steps:.3g} steps exceed the "
                          f"{_MAX_NODE_STEPS} node-steps a march may take")


def _check_group(cases: list, grid: Grid1D, t_end: float) -> tuple:
    """The (dt, step count) of one group of a march, after its checks."""
    if not cases:
        raise DomainError("params must hold at least one ModelParams")
    dx, dt = cases[0].dx, cases[0].dt
    if any(p.dx != dx or p.dt != dt for p in cases):
        raise DomainError("batched params must share dx and dt")
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end}")
    _check_node_steps(len(cases) * (grid.n_intervals + 1), t_end / dt)
    # The step count with the slack first: at dx = 0.1, dt = 30*dx**2 is
    # 0.30000000000000004, and t_end = 0.6 is two steps, not fewer.
    n_steps = round(t_end / dt)
    if abs(n_steps * dt - t_end) > 1e-9 * abs(t_end):
        raise DomainError(
            f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    if n_steps < 2:
        raise DomainError("t_end must be at least 2*dt")
    if not _is_spacing(dx, grid.n_intervals):
        raise DomainError("grid spacing does not match params.dx")
    return dt, n_steps


def _is_spacing(dx: float, n_intervals: int) -> bool:
    # Whether dx is 1/n_intervals to 1e-12 relative: the one spacing test.
    return abs(1.0 / n_intervals - dx) <= 1e-12 * dx


def _seed(blocks: list, initializer, xs: np.ndarray, dt: float) -> None:
    # Copy the initializer's results at t = 0, dt, 2*dt into a group's blocks
    # of the start levels, each dropped before the next one is made.
    for k, block in enumerate(blocks):
        value = initializer(xs, k * dt)
        try:
            block[...] = value
        except ValueError:
            raise DomainError(f"the initializer's result, of shape "
                              f"{np.shape(value)}, does not broadcast to "
                              f"the level shape {block.shape}") from None


def _march(groups, boundary: BoundarySpec, skip: bool = True) -> list:
    """March groups of rows to their ends as one flat batch, in stages.

    A group is a tuple (cases, grid, initializer, t_end): a non-empty
    sequence of `ModelParams` that share dx and dt, and `run`'s other
    arguments, the initializer's result broadcast to the group's (rows,
    nodes) block; every row's ends are pinned to `boundary`.  Every group is
    checked before anything is allocated (else `DomainError`).  The rows lie
    in one flat level row, groups in descending step-count order, so the
    groups still marching are always a prefix of it.  Each stage plans that
    prefix of the rotated level ring and marches it, one level at a time,
    to the step count of the next group to end; that group is then read
    out, with its zero source terms added back, and costs nothing more, as
    later stages write only a shorter prefix.  A stage of two or more
    passes per level that `_may_fork` splits them between `_cpus()`
    workers, at most one per pass (`_advance`).  If they stop short, the
    rest of the stage is planned again from the level they reached and
    made by one worker, so raises, warnings and callbacks come as from a
    march in one process, and no child outlives the call.  Returns one
    (rows, nodes) array per group, in the order given: views of march
    buffers whose blocks do not overlap.

    With `skip`, a stage leaves out the history weights that are +-0.0 in
    all of its rows.  A group with such a weight skips only from finite
    start levels and when none of its rows' source terms is -0.0, and keeps
    copies of them; if its result then holds a non-finite value it is
    marched again alone from them with `skip` false (see the module
    docstring for why this keeps every bit).
    """
    checked = []
    for cases, grid, initializer, t_end in groups:
        cases = list(cases)
        checked.append((_check_group(cases, grid, t_end), cases, grid,
                        initializer))
    order = sorted(range(len(checked)), key=lambda g: -checked[g][0][1])
    steps, tables, layout = [], [], []
    for g in order:
        (dt, n_steps), cases, grid, _ = checked[g]
        steps.append(n_steps)
        tables.append([_weight_row(coefficients(p.omega0, p.s1, p.s2), dt,
                                   p.source_R) for p in cases])
        layout.append((len(cases), grid.n_intervals + 1))
    # Level m lives in ring[m % 4], whose node 1, the first that a pass
    # writes, starts a cache line; in shared maps if any stage may fork.  A
    # group's nodes live only for its seeds.
    size = sum(r * n for r, n in layout)
    shared = size - 2 > _CHUNK and _may_fork(size * (steps[0] - 2))
    ring = [_shared(size) if shared else _aligned(size, 1) for _ in range(4)]
    starts = [_blocks(ring[k], layout) for k in range(3)]
    may_skip, kept = [True] * len(order), {}
    for i, g in enumerate(order):
        (dt, _), _, grid, initializer = checked[g]
        seeds = [blocks[i] for blocks in starts]
        _seed(seeds, initializer, grid.nodes(), dt)
        if skip and any(not any(row[k] for row in tables[i])
                        for k in (2, 3, 4)):
            may_skip[i] = not any(
                w[5] == 0.0 and math.copysign(1.0, w[5]) < 0.0
                for w in tables[i]) and all(np.isfinite(seed).all()
                                            for seed in seeds)
            if may_skip[i]:
                kept[i] = [seed.copy() for seed in seeds]
    finals = [None] * len(order)
    level, active = 2, len(order)
    while active:
        size = sum(r * n for r, n in layout[:active])
        workers = _cpus() if shared and _may_fork(
            size * (steps[active - 1] - level)) else 1
        while steps[active - 1] > level:
            rot = [ring[(level - 2 + i) % 4][:size] for i in range(4)]
            runs = _plan(rot, rot[3:] + rot[:3],
                         [row for t in tables[:active] for row in t],
                         (boundary.left_value, boundary.right_value),
                         layout[:active], None,
                         skip and all(may_skip[:active]), workers)
            level += _advance(runs, steps[active - 1] - level)
            workers = 1
        while active and steps[active - 1] == level:
            active -= 1
            final = _blocks(ring[level % 4], layout)[active]
            if level > 2:
                _add_zero_terms(final, tables[active])
                if active in kept and not np.isfinite(final).all():
                    (dt, _), cases, grid, _ = checked[order[active]]
                    again = iter(kept[active])
                    (final,) = _march([(cases, grid, lambda x, t: next(again),
                                        level * dt)], boundary, False)
            finals[order[active]] = final
    return finals


def run(params: ModelParams, grid: Grid1D, initializer,
        boundary: BoundarySpec, t_end: float) -> np.ndarray:
    """March the four-level scheme from seeded start data to t_end.

    The first three levels come from `initializer(x, t)` at t = 0, dt,
    2*dt, called once per level with the array x of node positions; its
    result must broadcast to the level's shape (else `DomainError`) and is
    copied, so it may return a scalar or a field on the nodes, and it is
    never modified.  t_end must be finite and an integer multiple of dt
    (relative slack 1e-9) of at least two steps, and the march may take at
    most 2**36 node-steps (nodes x time levels).  For t_end = 2*dt the
    third seeded level is returned with zero four-level updates applied, so
    the result is always the field at exactly t_end.  The result is a fresh
    array.  The end nodes are pinned to `boundary`'s Dirichlet values.  A
    long row may be split between forked processes (see `_march`); the
    result's bits do not depend on their number.
    """
    if not isinstance(params, ModelParams):
        raise DomainError("params must be one ModelParams")
    (final,) = _march([([params], grid, initializer, t_end)], boundary)
    return final[0]
