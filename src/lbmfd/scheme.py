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
on one strided view with a pair of its own.  Long rows are swept in
cache-sized passes.  The levels of a march rotate through four buffers, so
the calls of all four phases are built once per march, each phase as one
flat list of ufunc calls, and a step only makes the calls of its phase.  A
single case keeps its weights and source term as scalars, and a batch
reads them per node.

`run` is the one-row case of a staged march: groups of rows on different
grids, with different dt and step counts, lie one after the other in one
flat row, in descending step-count order.  Each stage marches the prefix
of the groups still running to the step count of the next group to end,
so a group that has ended costs nothing more, and the convergence tables
march all of their spacings at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

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
    """Ring buffer of the three most recent field levels.

    Levels rotate by index on push; arrays are never copied.  step_index is
    the time index of the newest level, so a freshly seeded history (levels
    at t = 0, dt, 2*dt) has step_index = 2.
    """

    def __init__(self, levels: list[np.ndarray], dt: float, step_index: int):
        if len(levels) != 3:
            raise DomainError("a history holds exactly three levels")
        shape = np.shape(levels[0])
        if len(shape) != 1 or any(np.shape(lv) != shape for lv in levels):
            raise DomainError("history levels must share one 1-D shape")
        if not (math.isfinite(dt) and dt > 0.0):
            raise DomainError(f"dt must be positive and finite, got {dt}")
        self._levels = list(levels)
        self.dt = dt
        self.step_index = step_index

    @classmethod
    def from_levels(cls, phi_nm2, phi_nm1, phi_n, dt: float) -> "PhiHistory":
        levels = [np.asarray(phi_nm2), np.asarray(phi_nm1), np.asarray(phi_n)]
        return cls(levels, dt, 2)

    @property
    def oldest(self) -> np.ndarray:
        return self._levels[0]

    @property
    def previous(self) -> np.ndarray:
        return self._levels[1]

    @property
    def current(self) -> np.ndarray:
        return self._levels[2]

    def push(self, new_level: np.ndarray) -> np.ndarray:
        self._levels[0], self._levels[1], self._levels[2] = (
            self._levels[1], self._levels[2], new_level)
        self.step_index += 1
        return new_level


# Nodes per pass of the kernel.  A pass runs its eleven operations on slices
# of 256 KiB per array, which stay in a 2 MiB L2 cache between operations;
# a longer row would otherwise be streamed from memory eleven times per step.
_CHUNK = 2 ** 15

# Upper bound on the node-steps (nodes x time levels) of one group of a
# march.  The kernel takes about 6.5 ns per node-step on a 2 MiB-L2 Xeon
# core, so 2**36 is about 7 minutes; a larger count comes from a t_end, dx
# or step count that nobody means to wait for, and would otherwise just hang.
_MAX_NODE_STEPS = 2 ** 36


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


def _passes(buf: np.ndarray, periodic: bool) -> list:
    """One (left, mid, right) view triple of the flat level `buf` per pass.

    The flat passes take the 1-D slices [lo:hi], [lo+1:hi+1] and
    [lo+2:hi+2].  A periodic level, which holds one row, adds one pass: its
    wrap nodes 0 and n-1 as one strided view, with their neighbours.
    """
    interior = buf.shape[0] - 2
    passes = []
    for lo in range(0, interior, _CHUNK):
        hi = min(lo + _CHUNK, interior)
        passes.append((buf[lo:hi], buf[lo + 1:hi + 1], buf[lo + 2:hi + 2]))
    if periodic:
        # The wrap nodes 0 and n-1; their left neighbours are n-1, n-2 and
        # their right ones 1, 0.
        passes.append((buf[:-3:-1], buf[::max(buf.shape[0] - 1, 1)],
                       buf[1::-1]))
    return passes


def _weight_passes(table, layout: list, n_passes: int) -> list:
    """Per-pass tuples of the five field weights and the source term.

    `table` has one `_weight_row` per row of `layout`.  A single row keeps
    its Python floats; a batch, which is never periodic, repeats each column
    over the nodes of each row, once, and each pass takes its slice of it.
    """
    if len(table) == 1:
        return [table[0]] * n_passes
    nodes = [n for rows, n in layout for _ in range(rows)]
    columns = [[mid for _, mid, _ in _passes(np.repeat(col, nodes), False)]
               for col in zip(*table)]
    return list(zip(*columns))


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
    its Dirichlet ends.  Each phase is a flat tuple of (function, args)
    calls.  The pair sum prev_l + prev_r is carried in one array from phase
    to phase, so the phases must run in order, from phase 0; it starts as
    the pair of ring[1], the same addition that the step which wrote
    ring[2] made.  The periodic wrap pass carries its own pair, as the flat
    passes overwrite the seam nodes it recomputes.  `table` is as for
    `_weight_passes`, and the outputs must not overlap the levels a phase
    reads.  The two pass-sized work arrays are allocated here unless
    `scratch` gives two arrays of the levels' dtype, as long as a pass and
    free while a phase runs.
    """
    periodic = boundary.kind == "periodic"
    dtype = outs[0].dtype
    levels = [_passes(buf, periodic) for buf in ring]
    mids = [mid for _, mid, _ in levels[0]]
    n_flat = len(mids) - periodic
    width = max((m.size for m in mids[:n_flat]), default=0)
    term, part = np.empty((2, width), dtype) if scratch is None else scratch
    carried = [(np.empty(m.size, dtype), term[:m.size], part[:m.size])
               for m in mids[:n_flat]]
    carried += [tuple(np.empty((3, *m.shape), dtype)) for m in mids[n_flat:]]
    for (left, _, right), (pair, _, _) in zip(levels[1], carried):
        np.add(left, right, pair)
    weights = _weight_passes(table, layout, len(carried))
    if not periodic:
        # Both end nodes of every row, pinned by one `put` whose two values
        # repeat along the index list.
        ends, start = [], 0
        for rows, nodes in layout:
            for _ in range(rows):
                ends += (start, start + nodes - 1)
                start += nodes
        ends = np.array(ends)
        values = np.array((boundary.left_value, boundary.right_value), dtype)
    phases = []
    for k, out in enumerate(outs):
        old, prev, cur = (levels[(k + i) % len(ring)] for i in range(3))
        calls = []
        for c, p, o, (_, acc, _), carry, w in zip(
                cur, prev, old, _passes(out, periodic), carried, weights):
            calls += _pass_calls(c, p[1], o[1], acc, *carry, w)
        if not periodic:
            calls.append((out.put, (ends, values)))
        phases.append(tuple(calls))
    return tuple(phases)


def step(history: PhiHistory, coeffs: FdCoefficients, dt: float, R: float,
         boundary: BoundarySpec) -> np.ndarray:
    """Advance the four-level recurrence by one time level.

    The new level is a freshly allocated array; it is pushed into the
    history and returned.  Dirichlet end nodes are pinned to their boundary
    values; periodic indexing wraps.
    """
    if history.step_index < 2:
        raise DomainError("the four-level update needs three seeded levels")
    levels = [history.oldest, history.previous, history.current]
    out = np.empty(levels[0].shape, np.result_type(*levels, 1.0))
    (phase,) = _plan(levels, [out], [_weight_row(coeffs, dt, R)], boundary,
                     [(1, out.size)])
    for fn, args in phase:
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
    if t_end < 2.0 * dt:
        raise DomainError("t_end must be at least 2*dt")
    _check_node_steps(len(cases) * (grid.n_intervals + 1), t_end / dt)
    n_steps = round(t_end / dt)
    if abs(n_steps * dt - t_end) > 1e-9 * abs(t_end):
        raise DomainError(
            f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    if abs(grid.dx - dx) > 1e-12 * dx:
        raise DomainError("grid spacing does not match params.dx")
    return dt, n_steps


def _seed(block: np.ndarray, value) -> None:
    # Copy an initializer's result into a block of a start level; the
    # result is dropped on return, before the next one is made.
    try:
        block[...] = value
    except ValueError:
        raise DomainError(f"the initializer's result, of shape "
                          f"{np.shape(value)}, does not broadcast to the "
                          f"level shape {block.shape}") from None


def _march(groups, boundary: BoundarySpec) -> list:
    """March groups of rows to their ends as one flat batch, in stages.

    A group is a tuple (cases, grid, initializer, t_end): a non-empty
    sequence of `ModelParams` that share dx and dt, and `run`'s other
    arguments, the initializer's result broadcast to the group's (rows,
    nodes) block.  Every group is checked before anything is allocated,
    and a periodic march holds one row (else `DomainError`).  The rows lie
    in one flat level row, groups in descending step-count order, so the
    groups still marching are always a prefix of it.  Each stage plans that
    prefix of the rotated level ring and marches to the step count of the
    next group to end; that group is then read out and costs nothing more,
    as later stages write only a shorter prefix.  Returns one (rows, nodes)
    array per group, in the order given: views of the march's own buffers,
    whose blocks do not overlap.
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
    steps, tables, layout, seeds = [], [], [], []
    for g in order:
        (dt, n_steps), cases, grid, initializer = checked[g]
        xs = grid.nodes()[:-1] if periodic else grid.nodes()
        steps.append(n_steps)
        tables.append([_weight_row(coefficients(p.weights.omega0,
                                                p.relax.s1, p.relax.s2),
                                   dt, p.source_R) for p in cases])
        layout.append((len(tables[-1]), xs.size))
        seeds.append((initializer, xs, dt))
    # Level m of the march lives in ring[m % 4].
    ring = [np.empty(sum(r * n for r, n in layout)) for _ in range(4)]
    for k in range(3):
        for block, (initializer, xs, dt) in zip(_blocks(ring[k], layout),
                                                seeds):
            _seed(block, initializer(xs, k * dt))
    finals = [None] * len(order)
    level, active = 2, len(order)
    while active:
        if steps[active - 1] > level:
            size = sum(r * n for r, n in layout[:active])
            rot = [ring[(level - 2 + i) % 4][:size] for i in range(4)]
            phases = _plan(rot, rot[3:] + rot[:3],
                           [row for t in tables[:active] for row in t],
                           boundary, layout[:active])
            for k in range(steps[active - 1] - level):
                for fn, args in phases[k % 4]:
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
    finite, an integer multiple of dt (relative slack 1e-9) and at least
    2*dt, and the march may take at most 2**36 node-steps (nodes x time
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
