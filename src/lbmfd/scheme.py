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
between rows; Dirichlet pinning or the periodic wrap, computed from the
same expression on strided (cases, 2) views with a pair of their own,
overwrites them.  Long rows are swept in cache-sized passes.  The levels
of a march rotate through four buffers, so the calls of all four phases
are built once per march and a step only makes the calls of its phase.  A
single case keeps its weights and source term as scalars, and a batch reads
them per node.  `run` accepts a sequence of parameter sets that share dx
and dt and marches them as one batch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
import numpy as np

from .calibration import ModelParams, check_box
from .errors import DomainError

_FMT = "{:.17g}"


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

    def weight_sum(self) -> float:
        """Correctly rounded sum of all field weights; within 2**-53 of 1
        for weights from `coefficients`."""
        return math.fsum((2.0 * self.side_n, self.center_n,
                          2.0 * self.side_nm1, self.center_nm1,
                          self.center_nm2))


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
    """Uniform grid with nodes x0 + j*dx for j = 0..n_intervals."""

    n_intervals: int
    length: float = 1.0
    x0: float = 0.0
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
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise DomainError(f"length must be positive and finite, got "
                              f"{self.length}")
        if not math.isfinite(self.x0):
            raise DomainError(f"x0 must be finite, got {self.x0}")
        object.__setattr__(self, "dx", self.length / self.n_intervals)

    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_intervals + 1)


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
        n = levels[0].shape[0]
        if any(lv.shape != (n,) for lv in levels):
            raise DomainError("history levels must share one length")
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

# Upper bound on the node-steps (nodes x time levels) of one march.  The
# kernel takes about 6.5 ns per node-step on a 2 MiB-L2 Xeon core, so 2**36
# is about 7 minutes; a larger count comes from a t_end, dx or step count
# that nobody means to wait for, and would otherwise just hang.
_MAX_NODE_STEPS = 2 ** 36


def _weight_row(coeffs: FdCoefficients, dt: float, R: float) -> tuple:
    # The five field weights in stencil order, then the source term.
    return (coeffs.side_n, coeffs.center_n, coeffs.side_nm1,
            coeffs.center_nm1, coeffs.center_nm2, coeffs.source * dt * R)


def _passes(buf: np.ndarray, shape: tuple, periodic: bool) -> list:
    """One (left, mid, right) view triple of the flat level `buf` per pass.

    The flat passes take the 1-D slices [lo:hi], [lo+1:hi+1] and
    [lo+2:hi+2].  A periodic level adds the wrap nodes 0 and n-1 of every
    row as one strided view with their neighbours, in the rank of `shape`.
    """
    interior = buf.shape[0] - 2
    passes = []
    for lo in range(0, interior, _CHUNK):
        hi = min(lo + _CHUNK, interior)
        passes.append((buf[lo:hi], buf[lo + 1:hi + 1], buf[lo + 2:hi + 2]))
    if periodic:
        # The wrap nodes 0 and n-1; their left neighbours are n-1, n-2 and
        # their right ones 1, 0.  A 1-D level keeps 1-D views, which numpy
        # sweeps without its multi-dimensional iterator.
        rows = buf.reshape(shape)
        passes.append((rows[..., :-3:-1], rows[..., ::max(shape[-1] - 1, 1)],
                       rows[..., 1::-1]))
    return passes


def _weight_passes(table, shape: tuple, periodic: bool,
                   n_passes: int) -> list:
    """Per-pass tuples of the five field weights and the source term.

    `table` has one `_weight_row` per row of `shape`.  A single row keeps
    its Python floats; a batch repeats each column over the nodes of each
    row, once, and each pass takes its slice of it.
    """
    if len(table) == 1:
        return [table[0]] * n_passes
    columns = [[mid for _, mid, _ in _passes(np.repeat(col, shape[-1]),
                                             shape, periodic)]
               for col in zip(*table)]
    return list(zip(*columns))


def _combine(cur_l, cur_m, cur_r, prev_m, old_m, pair, acc, term, part,
             side_n, center_n, side_nm1, center_nm1, center_nm2, src):
    # The recurrence at the mid views of one pass, summed in the order of
    # the module docstring.  `pair` holds prev_l + prev_r from the pass that
    # wrote the previous level, and leaves with cur_l + cur_r for the next.
    np.multiply(pair, side_nm1, term)
    np.add(cur_l, cur_r, pair)
    np.multiply(pair, side_n, acc)
    np.multiply(cur_m, center_n, part)
    np.add(acc, part, acc)
    np.add(acc, term, acc)
    np.multiply(prev_m, center_nm1, part)
    np.add(acc, part, acc)
    np.multiply(old_m, center_nm2, part)
    np.add(acc, part, acc)
    np.add(acc, src, acc)


def _plan(ring: list, outs: list, table, boundary: BoundarySpec,
          shape: tuple, scratch=None) -> tuple:
    """The calls of each phase of a march, with the carried pair seeded.

    `ring` holds flat level buffers of `shape`; phase k reads old, prev
    and cur from ring[k], ring[k+1] and ring[k+2] (indices mod len(ring)),
    writes the next level into outs[k] and pins its Dirichlet ends.  Each
    phase is a tuple of (function, args) calls.  The pair sum prev_l +
    prev_r is carried in one array from phase to phase, so the phases must
    run in order, from phase 0; it starts as the pair of ring[1].  The
    periodic wrap pass carries its own pair, as the flat passes overwrite
    the seam nodes it recomputes.  `table` is as for `_weight_passes`, and
    the outputs must not overlap the levels a phase reads.  The two
    pass-sized work arrays are allocated here unless `scratch` gives two
    arrays of the levels' dtype, as long as a pass and free while a phase
    runs.
    """
    periodic = boundary.kind == "periodic"
    dtype = outs[0].dtype
    levels = [_passes(buf, shape, periodic) for buf in ring]
    flat = [mid for _, mid, _ in _passes(np.empty(ring[0].shape, dtype),
                                         shape, False)]
    width = max((m.size for m in flat), default=0)
    term, part = np.empty((2, width), dtype) if scratch is None else scratch
    carried = [(m, term[:m.size], part[:m.size]) for m in flat]
    if periodic:
        carried.append(tuple(np.empty((3, *levels[0][-1][1].shape), dtype)))
    for (left, _, right), (pair, _, _) in zip(levels[1], carried):
        np.add(left, right, pair)
    weights = _weight_passes(table, shape, periodic, len(carried))
    phases = []
    for k, out in enumerate(outs):
        cur, prev, old = (levels[(k + i) % len(ring)] for i in (2, 1, 0))
        calls = [(_combine, (*c, p[1], o[1], pair, acc, t, s, *w))
                 for c, p, o, (_, acc, _), (pair, t, s), w in zip(
                     cur, prev, old, _passes(out, shape, periodic), carried,
                     weights)]
        if not periodic:
            rows = out.reshape(shape)
            calls += [(rows[..., 0].fill, (boundary.left_value,)),
                      (rows[..., -1].fill, (boundary.right_value,))]
        phases.append(tuple(calls))
    return tuple(phases)


def _advance(phase: tuple) -> None:
    """Make the calls of one `_plan` phase: write one new level."""
    for fn, args in phase:
        fn(*args)


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
                     out.shape)
    _advance(phase)
    return history.push(out)


def _check_node_steps(nodes: int, steps: float) -> None:
    """Raise DomainError when nodes x steps exceeds _MAX_NODE_STEPS."""
    if not nodes * steps <= _MAX_NODE_STEPS:
        raise DomainError(f"{nodes} nodes x {steps:.3g} steps exceed the "
                          f"{_MAX_NODE_STEPS} node-steps a march may take")


def run(params, grid: Grid1D, initializer, boundary: BoundarySpec,
        t_end: float) -> np.ndarray:
    """March the four-level scheme from seeded start data to t_end.

    `params` is one `ModelParams`, or a non-empty sequence of them that
    share dx and dt (else `DomainError`).  A sequence is marched as one
    (cases, nodes) array whose row i uses the weights and source of
    params[i], and the result has that shape; one `ModelParams` gives a
    (nodes,) result.  The first three levels come from `initializer(x, t)`
    at t = 0, dt, 2*dt, called once per level with the array x of node
    positions; its result is broadcast to the level's shape and copied, so
    it may return a scalar, a field on the nodes or one row per case, and
    it is never modified.  t_end must be finite, an integer multiple of dt
    (relative slack 1e-9) and at least 2*dt, and the march may take at most
    2**36 node-steps (nodes x time levels).  For t_end = 2*dt the third
    seeded level is returned with zero four-level updates applied, so the
    result is always the field at exactly t_end.  The result is a fresh
    array.  Periodic runs use the n_intervals distinct nodes x0 + j*dx,
    j = 0..n_intervals-1.
    """
    batch = not isinstance(params, ModelParams)
    cases = list(params) if batch else [params]
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
    xs = grid.nodes()
    if boundary.kind == "periodic":
        xs = xs[:-1]
    shape = (len(cases), xs.size)
    # Four flat rows x nodes levels rotate through the ring; phase k of the
    # plan writes ring[k+3], so level m ends up in ring[m % 4].
    ring = [np.empty(math.prod(shape)) for _ in range(4)]
    for k in range(3):
        ring[k].reshape(shape)[...] = initializer(xs, k * dt)
    table = [_weight_row(coefficients(p.weights.omega0, p.relax.s1,
                                      p.relax.s2), dt, p.source_R)
             for p in cases]
    phases = _plan(ring, ring[3:] + ring[:3], table, boundary, shape)
    for k in range(n_steps - 2):
        _advance(phases[k % 4])
    final = ring[n_steps % 4].reshape(shape)
    return final if batch else final[0]


def snapshot_csv_lines(xs: np.ndarray, phi: np.ndarray) -> list[str]:
    """Serialize one field snapshot as CSV lines with header x,phi."""
    if xs.shape != phi.shape:
        raise DomainError("x and phi must share a length")
    lines = ["x,phi"]
    for x, v in zip(xs, phi):
        lines.append(f"{_FMT.format(float(x))},{_FMT.format(float(v))}")
    return lines
