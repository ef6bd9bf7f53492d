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
eleven numpy calls, not twelve.  The passes also cover the seam nodes
between rows, which Dirichlet pinning overwrites; a periodic march holds
one row, whose wrap nodes 0 and n-1 are computed from the same expression
on one strided view with a pair of its own.  A single case keeps its
weights and source term as 0-d arrays, and a batch reads them per node.

Long rows are cut into cache-sized passes, and a march advances two levels
per sweep: level n+1 makes its pass over a chunk, then level n+2 makes its
pass one cache line (eight nodes) behind, while the chunk's levels are
still in cache, and every output of a pass starts a 64-byte cache line.
Every node gets the same eleven calls in the same order, so the bits do
not depend on how the levels are swept.  The levels rotate through four
buffers: level n+2 overwrites level n-2, whose nodes level n+1 has already
read.  Each pass pins the end nodes that it writes, so level n+2 reads
level n+1's ends pinned; a periodic row computes level n+1's wrap nodes
first and level n+2's last.  The calls of all four phases are built once
per stage, grouped by pass, and a sweep makes the groups of two phases in
turn.  A stage of odd length ends with one phase alone, the leading half
of a sweep, and `step` and the equivalence check make their phases so too.

`run` is the one-row case of a staged march: groups of rows on different
grids, with different dt and step counts, lie one after the other in one
flat row, in descending step-count order.  Each stage marches the prefix
of the groups still running to the step count of the next group to end,
so a group that has ended costs nothing more, and the convergence tables
march all of their spacings at once.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import operator
from dataclasses import dataclass, field
from itertools import chain

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
        object.__setattr__(self, "dx", 1.0 / self.n_intervals)

    def nodes(self) -> np.ndarray:
        return self.dx * np.arange(self.n_intervals + 1)


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary treatment: periodic wrap or fixed end values."""

    kind: str
    left_value: float = 0.0
    right_value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("periodic", "dirichlet"):
            raise DomainError(f"unknown boundary kind {self.kind!r}")
        if not (math.isfinite(self.left_value)
                and math.isfinite(self.right_value)):
            raise DomainError("boundary values must be finite")

    @classmethod
    def periodic(cls) -> "BoundarySpec":
        return cls("periodic")

    @classmethod
    def dirichlet(cls, left: float, right: float) -> "BoundarySpec":
        return cls("dirichlet", left, right)


class PhiHistory:
    """Ring buffer of the three most recent field levels, oldest first.

    Levels rotate by index on push; arrays are never copied.
    """

    def __init__(self, levels: list[np.ndarray]):
        if len(levels) != 3:
            raise DomainError("a history holds exactly three levels")
        shape = np.shape(levels[0])
        if len(shape) != 1 or any(np.shape(lv) != shape for lv in levels):
            raise DomainError("history levels must share one 1-D shape")
        self._levels = list(levels)

    @classmethod
    def from_levels(cls, phi_nm2, phi_nm1, phi_n) -> "PhiHistory":
        return cls([np.asarray(phi_nm2), np.asarray(phi_nm1),
                    np.asarray(phi_n)])

    @property
    def current(self) -> np.ndarray:
        return self._levels[2]

    def push(self, new_level: np.ndarray) -> np.ndarray:
        self._levels[0], self._levels[1], self._levels[2] = (
            self._levels[1], self._levels[2], new_level)
        return new_level


# Nodes per pass of the kernel.  A sweep makes the passes of two levels
# over one chunk in turn, eleven operations each on slices of 256 KiB per
# array, so the chunk's five levels and its pair stay in a 2 MiB L2 cache
# from the first pass to the second; a longer row would otherwise be
# streamed from L3 eleven times per step.  At 2**18 nodes 2**13, 2**14 and
# 2**16 took 5.1, 4.4 and 5.7 ns per node-step against 4.4 (BENCH_11.json).
_CHUNK = 2 ** 15

# Time levels per sweep of a march.  At 2**18 nodes two took about 5% less
# time per node-step than one (BENCH_10.json), and four, on a Dirichlet
# row, no less than two (BENCH_11.json).  A periodic row allows no more
# than two: the first pass of a third level would read the second level's
# wrap node n-1, which needs the first level's last pass.
_DEPTH = 2

# Upper bound on the node-steps (nodes x time levels) of one group of a
# march.  The kernel takes about 4.4 ns per node-step on a 2 MiB-L2 Xeon
# core, so 2**36 is about 5 minutes; a larger count comes from a t_end, dx
# or step count that nobody means to wait for, and would otherwise just hang.
_MAX_NODE_STEPS = 2 ** 36

# Bytes per cache line.  On an AVX-512 core a 2**14-node np.add whose output
# straddles lines takes about twice as long as one whose output starts a line.
_LINE = 64


def _aligned(n: int, lead: int = 0, dtype=np.float64) -> np.ndarray:
    """A new array of `n` elements whose element `lead` starts a cache
    line: a view into an over-allocated byte buffer."""
    itemsize = np.dtype(dtype).itemsize
    buf = np.empty(n * itemsize + _LINE, np.uint8)
    # A third of the time of buf.ctypes.data, which `step` would feel.
    address = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    return np.frombuffer(buf, dtype, n, -(address + lead * itemsize) % _LINE)


def _weight_row(coeffs: FdCoefficients, dt: float, R: float) -> tuple:
    # The five field weights in stencil order, then the source term.
    return (coeffs.side_n, coeffs.center_n, coeffs.side_nm1,
            coeffs.center_nm1, coeffs.center_nm2, coeffs.source * dt * R)


def _blocks(buf: np.ndarray, layout: list) -> list:
    """The (rows, nodes) views of the blocks that `layout` lists, which lie
    one after the other at the start of the flat `buf`."""
    blocks, start = [], 0
    for rows, nodes in layout:
        blocks.append(buf[start:start + rows * nodes].reshape(rows, nodes))
        start += rows * nodes
    return blocks


def _bounds(interior: int, lag: int) -> list:
    """The (lo, hi) bounds of the flat passes of a level, one per `_CHUNK`
    of its `interior` nodes and at least one.  A pass writes the mid nodes
    lo+1 .. hi from the 1-D slices [lo:hi], [lo+1:hi+1] and [lo+2:hi+2].
    A level that trails another by `lag` nodes in a sweep has its bounds
    shifted left by `lag`, except that its first pass starts at 0 and its
    last runs to the end of the row.  Any lag >= 1 keeps the bits, and
    one cache line keeps each lo on a line, as `_CHUNK` does."""
    bounds = []
    for lo in range(0, max(interior, 1), _CHUNK):
        hi = min(lo + _CHUNK, interior)
        bounds.append((max(lo - lag, 0),
                       max(hi - lag, 0) if hi < interior else hi))
    return bounds


def _wrap(buf: np.ndarray) -> tuple:
    # The (left, mid, right) views of a periodic row's wrap nodes 0 and n-1,
    # whose left neighbours are n-1, n-2 and right ones 1, 0.
    return buf[:-3:-1], buf[::max(buf.shape[0] - 1, 1)], buf[1::-1]


def _pass_calls(cur, prev_m, old_m, acc, pair, term, part,
                weights) -> list:
    # The recurrence at the mid views of one pass as eleven in-place ufunc
    # calls, summed in the order of the module docstring.  `pair` holds
    # prev_l + prev_r from the pass that wrote the previous level, and
    # leaves with cur_l + cur_r for the next.
    cur_l, cur_m, cur_r = cur
    side_n, center_n, side_nm1, center_nm1, center_nm2, src = weights
    mul, add = np.multiply, np.add
    return [(mul, (pair, side_nm1, term)),
            (add, (cur_l, cur_r, pair)),
            (mul, (pair, side_n, acc)),
            (mul, (cur_m, center_n, part)),
            (add, (acc, part, acc)),
            (add, (acc, term, acc)),
            (mul, (prev_m, center_nm1, part)),
            (add, (acc, part, acc)),
            (mul, (old_m, center_nm2, part)),
            (add, (acc, part, acc)),
            (add, (acc, src, acc))]


def _plan(ring: list, outs: list, table, boundary: BoundarySpec,
          layout: list, scratch=None) -> tuple:
    """The calls of each phase of a march, with the carried pair seeded.

    `ring` holds flat level buffers of the blocks that `layout` lists;
    phase k reads old, prev and cur from ring[k], ring[k+1] and ring[k+2]
    (indices mod len(ring)), writes the next level into outs[k] and pins
    its Dirichlet ends.  A phase is a list of groups of (function, args)
    calls, one group per flat pass with the pins of the end nodes that the
    pass writes, plus a first and a last group, one of which holds a
    periodic row's wrap pass.  In a sweep phase k trails the leading phase
    by k % `_DEPTH` cache lines, and `_calls` makes the calls of one phase
    or of a sweep.  The pair sum prev_l + prev_r is carried in one array
    from phase to phase, so the phases must run in order, from phase 0; it
    starts as the pair of ring[1], the same addition that the step which
    wrote ring[2] made.  The periodic wrap pass carries its own pair.
    `table` has one `_weight_row` per row of `layout`: a single row's
    weights become 0-d arrays of the levels' dtype, which a ufunc takes
    faster than Python floats and rounds alike, and a batch, which is never
    periodic, repeats each column over the nodes of each row, once.  The
    outputs must not overlap the levels a phase reads, and its passes write
    whole cache lines when the outputs start one at node 1.  The pair and
    the two pass-sized work arrays are carved from one block, each starting
    a line, unless `scratch` gives the work arrays: two of the levels'
    dtype, as long as the row and free while a phase runs.
    """
    periodic = boundary.kind == "periodic"
    dtype = outs[0].dtype
    interior = outs[0].shape[0] - 2
    line = _LINE // dtype.itemsize
    if periodic:
        wrap_work = tuple(np.empty((3, 2), dtype))
        left, _, right = _wrap(ring[1])
        np.add(left, right, wrap_work[0])
    else:
        ends, start = [], 0
        for rows, nodes in layout:
            for _ in range(rows):
                ends += (start, start + nodes - 1)
                start += nodes
        values = np.array((boundary.left_value, boundary.right_value)
                          * (len(ends) // 2), dtype)
    if len(table) > 1:
        nodes = [n for rows, n in layout for _ in range(rows)]
        columns = np.repeat(np.array(table).T, nodes, axis=1)
    else:
        row = tuple(np.array(w, dtype) for w in table[0])
    # Per lag, the passes as (lo, hi, weights, pins): `pins` are the
    # arguments of one `put` of the end nodes that the pass writes, or None.
    forms = []
    for lag in range(min(len(outs), _DEPTH)):
        bounds = _bounds(interior, lag * line)
        pins = [None] * len(bounds)
        if not periodic:
            cuts = [0] + [bisect.bisect_left(ends, lo + 1)
                          for lo, _ in bounds[1:]] + [len(ends)]
            for c, (i, j) in enumerate(zip(cuts, cuts[1:])):
                if j > i:
                    pins[c] = (np.array(ends[i:j]), values[i:j])
        forms.append([(lo, hi, row if len(table) == 1 else
                       tuple(columns[:, lo + 1:hi + 1]), pin)
                      for (lo, hi), pin in zip(bounds, pins)])
    width = max(hi - lo for form in forms for lo, hi, _, _ in form)
    # The pair and the two work arrays, rounded up to whole cache lines.
    skip, wide = -(-interior // line) * line, -(-width // line) * line
    block = _aligned(skip + (0 if scratch else 2 * wide), 0, dtype)
    pair = block[:interior]
    term, part = scratch or (block[skip:skip + wide], block[skip + wide:])
    np.add(ring[1][:-2], ring[1][2:], pair)
    phases = []
    for k, out in enumerate(outs):
        old, prev, cur = (ring[(k + i) % len(ring)] for i in range(3))
        groups = []
        for lo, hi, weights, pin in forms[k % _DEPTH]:
            calls = _pass_calls(
                (cur[lo:hi], cur[lo + 1:hi + 1], cur[lo + 2:hi + 2]),
                prev[lo + 1:hi + 1], old[lo + 1:hi + 1], out[lo + 1:hi + 1],
                pair[lo:hi], term[:hi - lo], part[:hi - lo], weights)
            if pin is not None:
                calls.append((out.put, pin))
            groups.append(calls)
        # A leading level's wrap pass reads only the levels before it, so
        # it runs first; a trailing one reads the nodes next to the wrap
        # nodes of the level it trails, so it runs last.
        wrap = []
        if periodic:
            wrap = _pass_calls(_wrap(cur), _wrap(prev)[1], _wrap(old)[1],
                               _wrap(out)[1], *wrap_work, row)
        phases.append([wrap, *groups, []] if k % _DEPTH == 0 else
                      [[], *groups, wrap])
    return tuple(phases)


def _calls(*phases) -> tuple:
    """The calls of `phases` as one sweep: group c of each phase in turn,
    for each c.  One phase gives its own calls in order."""
    return tuple(chain.from_iterable(chain.from_iterable(zip(*phases))))


def step(history: PhiHistory, coeffs: FdCoefficients, dt: float, R: float,
         boundary: BoundarySpec) -> np.ndarray:
    """Advance the four-level recurrence by one time level.

    The new level is a freshly allocated array; it is pushed into the
    history and returned.  Dirichlet end nodes are pinned to their boundary
    values; periodic indexing wraps.  A non-finite or non-positive dt, or a
    non-finite R, raises DomainError.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(R):
        raise DomainError(f"R must be finite, got {R}")
    levels = history._levels
    out = np.empty(levels[0].shape, np.result_type(*levels, 1.0))
    (phase,) = _plan(levels, [out], [_weight_row(coeffs, dt, R)], boundary,
                     [(1, out.size)])
    for fn, args in _calls(phase):
        fn(*args)
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
    if abs(grid.dx - dx) > 1e-12 * dx:
        raise DomainError("grid spacing does not match params.dx")
    return dt, n_steps


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


def _march(groups, boundary: BoundarySpec) -> list:
    """March groups of rows to their ends as one flat batch, in stages.

    A group is a tuple (cases, grid, initializer, t_end): a non-empty
    sequence of `ModelParams` that share dx and dt, and `run`'s other
    arguments, the initializer's result broadcast to the group's (rows,
    nodes) block.  Every group is checked before anything is allocated,
    and a periodic march holds one row (else `DomainError`).  The rows lie
    in one flat level row, groups in descending step-count order, so the
    groups still marching are always a prefix of it.  Each stage plans that
    prefix of the rotated level ring and marches, `_DEPTH` levels per
    sweep, to the step count of the next group to end; that group is then
    read out and costs nothing more, as later stages write only a shorter
    prefix.  Returns one (rows, nodes) array per group, in the order given:
    views of the march's own buffers, whose blocks do not overlap.
    """
    periodic = boundary.kind == "periodic"
    checked = []
    for cases, grid, initializer, t_end in groups:
        cases = list(cases)
        checked.append((_check_group(cases, grid, t_end), cases, grid,
                        initializer))
    if periodic and sum(len(cases) for _, cases, _, _ in checked) > 1:
        raise DomainError("a periodic march holds one row")
    order = sorted(range(len(checked)), key=lambda g: -checked[g][0][1])
    steps, tables, layout = [], [], []
    for g in order:
        (dt, n_steps), cases, grid, _ = checked[g]
        steps.append(n_steps)
        tables.append([_weight_row(coefficients(p.omega0, p.s1, p.s2), dt,
                                   p.source_R) for p in cases])
        layout.append((len(cases), grid.n_intervals + (not periodic)))
    # Level m lives in ring[m % 4], whose node 1, the first that a pass
    # writes, starts a cache line.  A group's nodes live only for its seeds.
    ring = [_aligned(sum(r * n for r, n in layout), 1) for _ in range(4)]
    starts = [_blocks(ring[k], layout) for k in range(3)]
    for i, g in enumerate(order):
        (dt, _), _, grid, initializer = checked[g]
        _seed([blocks[i] for blocks in starts], initializer,
              grid.nodes()[:-1] if periodic else grid.nodes(), dt)
    finals = [None] * len(order)
    level, active = 2, len(order)
    while active:
        if steps[active - 1] > level:
            size = sum(r * n for r, n in layout[:active])
            rot = [ring[(level - 2 + i) % 4][:size] for i in range(4)]
            phases = _plan(rot, rot[3:] + rot[:3],
                           [row for t in tables[:active] for row in t],
                           boundary, layout[:active])
            sweeps = [_calls(*phases[k:k + _DEPTH])
                      for k in range(0, 4, _DEPTH)]
            n_sweeps, tail = divmod(steps[active - 1] - level, _DEPTH)
            for k in range(n_sweeps):
                for fn, args in sweeps[k % len(sweeps)]:
                    fn(*args)
            # The leading levels of one more sweep, if the stage has them.
            k = n_sweeps * _DEPTH % 4
            for fn, args in _calls(*phases[k:k + tail]):
                fn(*args)
            level = steps[active - 1]
        while active and steps[active - 1] == level:
            active -= 1
            finals[order[active]] = _blocks(ring[level % 4],
                                            layout)[active]
    return finals


def run(params: ModelParams, grid: Grid1D, initializer,
        boundary: BoundarySpec, t_end: float) -> np.ndarray:
    """March the four-level scheme from seeded start data to t_end.

    The first three levels come from `initializer(x, t)` at t = 0, dt,
    2*dt, called once per level with the array x of node positions; its
    result must broadcast to the level's shape (else `DomainError`) and is
    copied, so it may return a scalar or a field on the nodes, and it is
    never modified.  t_end must be
    finite and an integer multiple of dt (relative slack 1e-9) of at least
    two steps, and the march may take at most 2**36 node-steps (nodes x time
    levels).  For t_end = 2*dt the third seeded level is returned with zero
    four-level updates applied, so the result is always the field at
    exactly t_end.  The result is a fresh array.  Periodic runs use the
    n_intervals distinct nodes j*dx, j = 0..n_intervals-1.  A run is the
    one-row case of the staged march that the convergence tables share.
    """
    if not isinstance(params, ModelParams):
        raise DomainError("params must be one ModelParams")
    (final,) = _march([([params], grid, initializer, t_end)], boundary)
    return final[0]
