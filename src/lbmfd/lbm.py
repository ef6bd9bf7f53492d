"""Mesoscopic D1Q3 MRT update for the 1D diffusion equation.

Populations stream with velocities (-c, 0, c), c = dx/dt, and collide in
moment space.  The moment transform and its exact inverse are

    M = [[1,    1,     1  ],          M_inv = [[1/3, -1/(2c), 1/(6c^2)],
         [-c,   0,     c  ],                   [1/3,  0,     -1/(3c^2)],
         [c^2, -2c^2,  c^2]]                   [1/3,  1/(2c), 1/(6c^2)]]

with the population order (f_minus, f_zero, f_plus).  The macroscopic field
carries the trapezoidal half-step source correction,
phi = f_minus + f_zero + f_plus + dt*R/2, and equilibria are weight shares
of phi.  `evolve` applies the collision in its fully substituted
population form (cheap, no matrix products); `evolve_matrix_form` applies
the raw moment-space definition with explicit M, S, M_inv products.  Both
walk the same trajectory to rounding error, and the conserved-moment rate
s0 drops out exactly because the conserved moment already equals its
equilibrium.

`evolve` and `fd_equivalence_deviation` share one in-place kernel that
collides and streams three preallocated population arrays with slice
operations, its scalars held as 0-d arrays.  `_collider` slices the
streaming views and binds the scalars once, then returns the collision;
the check builds one per run, so each level pays only for its ufunc calls.
The equivalence check streams the trajectory through it into a ring of
ghost-padded levels, laid out as `_deviation` describes, whose memory
grows with the node count, not with nodes times steps.  Each array starts
a 64-byte cache line at the first node that a kernel writes.
A source term of +-0.0 sets only the sign of exact zeros, which the
check's maxima of |gap| and |phi| cannot see, so the check leaves out its
zero source adds; `evolve`, which returns its populations, keeps them.

The check is a producer, the collision, that hands levels to a consumer,
the prediction with the running maxima of |gap| and |phi|.  On long rows
(see `_deviation`) that `scheme._may_fork`, the consumer runs in one
forked child, which has a GIL of its own (`_forked_check`).  Everywhere
else the two interleave in the calling process.

The lattice is periodic, the form on which the model is analysed; the
Dirichlet decaying-sine problem is marched in the finite-difference form.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from .calibration import ModelParams
from .errors import DomainError
from .scheme import (_CHUNK, _aligned, _check_node_steps, _forked,
                     _may_fork, _plan, _shared, _take, _weight_row,
                     coefficients)

# The equivalence check holds thirteen node-length float64 arrays, about
# 105 B per node, on long rows, and a window of short rows stretches six of
# them to about one `_CHUNK` pass each.  A forked check holds about 152 B
# per node: seven arrays in the parent, the shared ring's eight rows and
# the child's four.  So 2**21 nodes keep it near 320 MB.
_MAX_EQUIV_NODES = 2 ** 21

# Rows of the forked check's shared ring: the four levels that a
# prediction reads and compares, and four more that the collision may run
# ahead (16 rows were no faster in a scratch prototype).
_SHARED_ROWS = 8


@dataclass(frozen=True)
class DistributionField:
    """Populations on the grid, one array per lattice velocity."""

    f_minus: np.ndarray
    f_zero: np.ndarray
    f_plus: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.f_minus)
        if len(shape) != 1 or any(np.shape(f) != shape
                                  for f in (self.f_zero, self.f_plus)):
            raise DomainError("population arrays must share one 1-D shape")

    @property
    def node_count(self) -> int:
        return self.f_minus.shape[0]


@dataclass(frozen=True)
class LatticeMatrices:
    """Moment transform M, relaxation diagonal S and exact inverse M_inv."""

    M: np.ndarray
    S: np.ndarray
    M_inv: np.ndarray


def lattice_matrices(params: ModelParams) -> LatticeMatrices:
    """Build the moment-space matrices for lattice speed c = dx/dt."""
    c = params.dx / params.dt
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"lattice speed must be positive and finite, "
                          f"got {c}")
    M = np.array([
        [1.0, 1.0, 1.0],
        [-c, 0.0, c],
        [c * c, -2.0 * c * c, c * c],
    ])
    M_inv = np.array([
        [1.0 / 3.0, -1.0 / (2.0 * c), 1.0 / (6.0 * c * c)],
        [1.0 / 3.0, 0.0, -1.0 / (3.0 * c * c)],
        [1.0 / 3.0, 1.0 / (2.0 * c), 1.0 / (6.0 * c * c)],
    ])
    S = np.diag([params.s0, params.s1, params.s2])
    return LatticeMatrices(M=M, S=S, M_inv=M_inv)


def equilibrium(phi, params: ModelParams):
    """Equilibrium populations (weight shares of phi); broadcasts over phi."""
    return (params.omega1 * phi, params.omega0 * phi, params.omega1 * phi)


def _half_source(params: ModelParams) -> float:
    # The half-step source correction dt*R/2.  Every source term of the
    # update scales dt*R, so one that overflows is refused, as
    # `scheme._weight_row` refuses source*dt*R.
    dt_R = params.dt * params.source_R
    if not math.isfinite(dt_R):
        raise DomainError(f"the source term dt*R is {dt_R}")
    return 0.5 * params.dt * params.source_R


def macro_phi(f: DistributionField, params: ModelParams) -> np.ndarray:
    """Macroscopic field with the half-step source correction."""
    return f.f_minus + f.f_zero + f.f_plus + _half_source(params)


def initialize(phi0: np.ndarray, params: ModelParams) -> DistributionField:
    """Equilibrium populations whose macroscopic field equals phi0."""
    base = np.asarray(phi0, dtype=float) - _half_source(params)
    fm, f0, fp = equilibrium(base, params)
    return DistributionField(fm, f0, fp)


def _collision_constants(params: ModelParams, dtype) -> tuple:
    # The scalar operands of `_collider`, as 0-d arrays of the
    # populations' dtype: a ufunc takes one faster than a Python float and
    # rounds it alike.  The three source terms come last.
    omega0, omega1, s1, s2 = params.omega0, params.omega1, params.s1, params.s2
    dt_R = params.dt * params.source_R
    return tuple(np.array(value, dtype) for value in (
        0.5 * s1, 0.5 * s2, 0.5 * omega0 * s2, 1.0 - s2, omega0 * s2,
        _half_source(params), omega0 * (1.0 - s2 / 2.0) * dt_R,
        (omega1 + omega0 * s2 / 4.0) * dt_R))


def _collider(f_minus, f_zero, f_plus, consts, asym, pull, tmp):
    # One periodic update of the three population arrays, in place, as
    # `collide(phi)`, which writes the macroscopic field of the incoming
    # populations into `phi`.  asym, pull and tmp are scratch of the same
    # shape, and `consts` comes from `_collision_constants`, a source term of
    # None being left out.  The views of the streaming adds and the constants
    # are bound here once, so a call makes only its ufunc calls.  Terms are
    # summed in the order of `evolve`'s docstring, and the addition of `pull`
    # to a moving population lands one node downstream.
    (half_s1, half_s2, half_omega0_s2, keep_zero, omega0_s2, half_src,
     zero_src, moving_src) = consts
    add, subtract, multiply = np.add, np.subtract, np.multiply
    left = (tmp[1:], pull[1:], f_minus[:-1])
    left_wrap = (tmp[:1], pull[:1], f_minus[-1:])
    right = (tmp[:-1], pull[:-1], f_plus[1:])
    right_wrap = (tmp[-1:], pull[-1:], f_plus[:1])

    def collide(phi):
        add(f_minus, f_zero, phi)
        add(phi, f_plus, phi)
        if half_src is not None:
            add(phi, half_src, phi)
        subtract(f_minus, f_plus, asym)
        multiply(asym, half_s1, asym)
        multiply(f_zero, half_s2, pull)
        multiply(phi, half_omega0_s2, tmp)
        subtract(pull, tmp, pull)
        multiply(f_zero, keep_zero, f_zero)
        multiply(phi, omega0_s2, tmp)
        add(f_zero, tmp, f_zero)
        if zero_src is not None:
            add(f_zero, zero_src, f_zero)
        subtract(f_minus, asym, tmp)
        add(*left)
        add(*left_wrap)
        add(f_plus, asym, tmp)
        add(*right)
        add(*right_wrap)
        if moving_src is not None:
            add(f_minus, moving_src, f_minus)
            add(f_plus, moving_src, f_plus)

    return collide


def _max_abs(x: np.ndarray, acc):
    # max(acc, max|x|), reading max|x| as max(max x, -min x), which is exact
    # and writes nothing; a NaN in x or in acc gives NaN.
    top = np.maximum.reduce(x, None)
    return top if top != top else max(acc, top, -np.minimum.reduce(x, None))


def evolve(f: DistributionField, params: ModelParams) -> DistributionField:
    """One collision-streaming update in substituted population form.

    With phi = macro_phi(f), asym = s1/2 * (f_minus - f_plus) and
    pull = s2/2 * f_zero - omega0*s2/2 * phi, the post-collision
    populations are

        g_minus = f_minus - asym + pull + (omega1 + omega0*s2/4) * dt*R
        g_zero  = (1 - s2) * f_zero + omega0*s2 * phi
                  + omega0*(1 - s2/2) * dt*R
        g_plus  = f_plus + asym + pull + (omega1 + omega0*s2/4) * dt*R

    summed left to right; g_minus then streams one node left and g_plus
    one node right, with periodic wrap.  The result is a new field and f
    is left untouched.
    """
    pops = (f.f_minus, f.f_zero, f.f_plus)
    dtype = np.result_type(*pops, 1.0)
    new = [np.array(p, dtype=dtype) for p in pops]
    phi, *work = [np.empty_like(new[0]) for _ in range(4)]
    _collider(*new, _collision_constants(params, dtype), *work)(phi)
    return DistributionField(*new)


def evolve_matrix_form(f: DistributionField,
                       params: ModelParams) -> DistributionField:
    """One periodic update straight from the moment-space definition.

    Collision: f* = f - M_inv S M (f - f_eq) + dt * M_inv (I - S/2) M r,
    with r the weight-shared source vector; then streaming.
    """
    mats = lattice_matrices(params)
    collide = mats.M_inv @ mats.S @ mats.M
    source_op = mats.M_inv @ (np.eye(3) - 0.5 * mats.S) @ mats.M
    phi = macro_phi(f, params)
    stack = np.vstack([f.f_minus, f.f_zero, f.f_plus])
    eq_stack = np.vstack(equilibrium(phi, params))
    r_vec = params.source_R * np.array(equilibrium(1.0, params))
    src = params.dt * (source_op @ r_vec)
    post = stack - collide @ (stack - eq_stack) + src[:, None]
    return DistributionField(np.roll(post[0], -1), post[1].copy(),
                             np.roll(post[2], 1))


def _produce(collide, block, n_nodes: int, steps: int, batched: bool):
    # The check's producer.  Collision n writes level n into the middle of
    # its row of `block` (see `_deviation`), and (n, row) is yielded once
    # the ghost nodes hold their periodic neighbours, which a strided copy
    # fills with the level's last and first node: when `batched`, of every
    # row at once, at levels 0, 1 and 2 and at the last level of a window or
    # of the trajectory; otherwise of the level's row alone, at every level.
    # The last collision's populations are never read.
    ring = len(block)
    mids = list(block[:, 1:n_nodes + 1])
    ends = block[:, :n_nodes + 2:n_nodes + 1]
    wraps = block[:, n_nodes:0:1 - n_nodes]
    ghosts = [(ends, wraps)] * ring if batched else list(zip(ends, wraps))
    for n in range(steps + 1):
        t = 3 + (n - 3) % (ring - 3) if batched and n > 2 else n % ring
        collide(mids[t])
        if n < 3 or t == ring - 1 or n == steps or not batched:
            ghost, wrap = ghosts[t]
            ghost[...] = wrap
            yield n, t


def _deviation(levels, block, n_nodes: int, steps: int, table: list,
               batched: bool, scratch: list) -> tuple[float, float]:
    # The check's consumer: (max |gap|, max |phi|) over the levels that
    # `levels` yields as (n, row of `block`).  A row is whole cache lines of
    # eight nodes long, starts node 1 on a line and has a ghost node at each
    # end that holds its periodic neighbour, so one plan of the kernel of
    # `scheme` predicts a level with wrap; its Dirichlet pins land on ghost
    # nodes, which are never compared.  A short (`batched`) row keeps levels
    # 0, 1 and 2 in rows 0, 1 and 2 and writes every later level into rows
    # 3 .. ring-1, a window of as many rows as one `_CHUNK` pass holds.  At
    # the window's last row, or the trajectory's (row t), one flat pass
    # predicts the window into `out`, which is laid out alike, from the old,
    # previous and current levels at rows 0, 1 and 2 on; rows 3 .. t are
    # compared, and rows ring-3 .. ring-1, ghosts and padding included, are
    # copied to rows 0, 1 and 2 for the next window.  The padding after each
    # row's ghosts is zero, and a window cut short predicts its stale rows
    # too, so a flat pass reads only finite values.  A long row keeps level
    # n in row n % ring, and each level is predicted alone, by one phase of
    # a cyclic plan.  The plan carries a pair, scratch[0], of span - 2 nodes
    # (span: the flat length of a window or a row), which is seeded again
    # before every window but the first; scratch[1:] are its two work
    # arrays.  |phi| is reduced at the last row of each group of rows or of
    # the trajectory: a window, the first with rows 0, 1 and 2, or four
    # rows of a long ring, none of which the forked check frees before its
    # last row is taken.
    ring, width = block.shape
    span = scratch[0].shape[0] + 2
    phases = 1 if batched else ring
    out = _aligned((ring - 3 if batched else 1) * width, 1)
    gaps = out.reshape(-1, width)[:, 1:n_nodes + 1]
    mids = block[:, 1:n_nodes + 1]
    flat = block.reshape(-1)
    # Phase k reads rows k, k+1 and k+2 (mod ring) and predicts row k+3.
    reads = [flat[k % ring * width:][:span] for k in range(phases + 2)]
    max_dev = max_phi = 0.0
    plan = None
    for n, t in levels:
        # Every level is in the block at one of these reductions.
        lo = (0 if n == t else 3) if batched else t - t % 4
        if t == (ring - 1 if batched else lo + 3) or n == steps:
            max_phi = _max_abs(mids[lo:t + 1], max_phi)
        if n < 3:
            continue
        if plan is None:
            (calls,) = _plan(reads, [out[:span]] * phases, table, (0.0, 0.0),
                             [(1, span)], scratch)
            plan = cycle(calls)
        elif batched:
            np.add(reads[1][:-2], reads[1][2:], scratch[0])
        for fn, args in next(plan):
            fn(*args)
        gap, new = ((gaps[:t - 2], mids[3:t + 1]) if batched
                    else (gaps[0], mids[t]))
        np.subtract(gap, new, out=gap)
        max_dev = _max_abs(gap, max_dev)
        if batched:
            block[:3] = block[-3:]
    return float(max_dev), float(max_phi)


def _handed(levels_r: int, frees_w: int, steps: int):
    # The (level, row) pairs of a forked check as its child takes them: one
    # byte from the producer per level, and one byte back once level n is
    # taken to free the row of level n-3, when the producer will write into
    # it.
    for n in range(steps + 1):
        if not _take(levels_r):
            raise EOFError("the producer stopped")
        yield n, n % _SHARED_ROWS
        if 3 <= n <= steps + 3 - _SHARED_ROWS:
            os.write(frees_w, b"\0")


def _forked_check(collide, n_nodes: int, width: int, steps: int,
                  table: list):
    # The check with its consumer in a forked child, which reads the levels
    # from a shared ring of `_SHARED_ROWS` rows of `width` nodes and sends
    # back its two maxima; None on a floating-point event or a failure.
    def consume(levels_r, frees_w):
        scratch = [_aligned(n_nodes) for _ in range(3)]
        maxima = _deviation(_handed(levels_r, frees_w, steps), block,
                            n_nodes, steps, table, False, scratch)
        os.write(frees_w, np.array(maxima).tobytes())

    def produce(ends):
        ((frees_r, levels_w),) = ends
        for n, _ in _produce(collide, block, n_nodes, steps, False):
            os.write(levels_w, b"\0")
            # Level n+1 overwrites level n+1-ring once that is freed.  If
            # the child has ended, this read gets no byte and the next
            # write raises BrokenPipeError.
            if _SHARED_ROWS - 1 <= n < steps:
                _take(frees_r)
        return _take(frees_r, 16)

    try:
        block = _shared(_SHARED_ROWS * width).reshape(_SHARED_ROWS, width)
        data = _forked([consume], produce)
    except (FloatingPointError, OSError):
        return None
    return tuple(np.frombuffer(data).tolist()) if len(data) == 16 else None


def fd_equivalence_deviation(n_nodes: int, steps: int, omega0: float,
                             s1: float, s2: float, seed: int,
                             source_R: float = 0.0) -> tuple[float, float]:
    """Largest gap between the mesoscopic trajectory and its four-level
    finite-difference prediction.

    Starts from a seeded uniform random field (numpy PCG64 generator),
    evolves the mesoscopic model `steps` times on a periodic lattice with
    dx = dt = 1, and predicts each level n+1 (n >= 2) from the three
    preceding macroscopic levels with the four-level stencil.  Returns
    (max absolute deviation, max absolute field value); a NaN anywhere in
    the trajectory or a prediction makes the deviation NaN.  The
    trajectory is streamed through a ring of levels: a window of short rows
    that one pass of `scheme`'s kernel predicts, or four long rows (from
    10,919 nodes).  On long rows that `scheme._may_fork` (n_nodes x steps
    node-steps), the prediction runs in one forked child, with the same
    bits.  On a floating-point event that the caller's `np.geterr()` does
    not ignore, or any failure of the child, the child is reaped and the
    whole check runs again in this process, so warnings, errors and
    `np.seterrcall` callbacks come as without the fork, and no child
    outlives the call.  At most 2**21 nodes and, as in `scheme.run`, 2**36
    node-steps (n_nodes x steps) are taken; the seed must be a
    non-negative integer.
    """
    try:
        n_nodes, steps, seed = map(operator.index, (n_nodes, steps, seed))
    except TypeError:
        raise DomainError("n_nodes, steps and seed must be integers") from None
    if not 8 <= n_nodes <= _MAX_EQUIV_NODES:
        raise DomainError(f"need 8 to {_MAX_EQUIV_NODES} nodes, got {n_nodes}")
    if steps < 3:
        raise DomainError("need at least 3 steps")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    _check_node_steps(n_nodes, steps)
    rng = np.random.default_rng(seed)
    params = ModelParams(omega0, s1, s2, dx=1.0, dt=1.0, source_R=source_R)
    table = [_weight_row(coefficients(omega0, s1, s2), params.dt,
                         params.source_R)]
    base = rng.random(n_nodes) - _half_source(params)
    consts = _collision_constants(params, np.float64)
    consts = consts[:5] + tuple(term if term else None for term in consts[5:])

    def collision(*work):
        # The equilibrium of `initialize`, built straight into buffers that
        # start a cache line at the first node that the collision writes, as
        # do all below: node 1 of f_plus, whose first store is streamed, else
        # node 0.
        pops = [np.multiply(share, base, out=_aligned(n_nodes, lead))
                for share, lead in zip(equilibrium(1.0, params), (0, 0, 1))]
        return _collider(*pops, consts, *(w[:n_nodes] for w in work))

    width = -(-(n_nodes + 2) // 8) * 8
    batched = _CHUNK // width > 2
    if not batched and _may_fork(n_nodes * steps):
        maxima = _forked_check(collision(*(_aligned(n_nodes)
                                           for _ in range(3))),
                               n_nodes, width, steps, table)
        if maxima is not None:
            return maxima
    ring = min(steps + 1, 3 + (_CHUNK // width if batched else 1))
    span = (ring - 4) * width + n_nodes + 2
    block = _aligned(ring * width, 1).reshape(ring, width)
    block[:, n_nodes + 2:] = 0.0
    # The plans borrow two of the collision's work arrays.
    work = [_aligned(span - 2), _aligned(span - 2), _aligned(n_nodes)]
    levels = _produce(collision(*work), block, n_nodes, steps, batched)
    return _deviation(levels, block, n_nodes, steps, table, batched,
                      [_aligned(span - 2), *work[:2]])
