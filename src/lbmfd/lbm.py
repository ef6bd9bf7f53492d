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
The equivalence check streams
the trajectory through it into a ring of macroscopic levels, rows of one
block, each with a ghost node at either end that holds its periodic
neighbour.  The ring holds three levels more than one cache-sized pass of
the four-level kernel of `scheme` can predict, and at most the whole
trajectory, so its memory grows with the node count, not with nodes times
steps.  The kernel predicts all but three of the ring's levels in one
flat pass over the padded rows, which saves its per-call cost on short
rows, and the other three one row at a time.  Each array starts a 64-byte
cache line at the first node that a kernel writes.
A source term of +-0.0 sets only the sign of exact zeros, which the
check's maxima of |gap| and |phi| cannot see, so the check leaves out its
zero source adds; `evolve`, which returns its populations, keeps them.

The check is a producer, the collision, that hands levels to a consumer,
the prediction with the running maxima of |gap| and |phi|.  Where the ring
holds four levels, the check takes `_FORK_NODE_STEPS` node-steps or more,
`os.fork` exists, the process may run on two or more CPUs, no other thread
runs and SIGCHLD is not ignored, the consumer runs in one forked child,
which has a GIL of its own (threads cannot share this work: numpy calls
on rows of 2**14 nodes hold the GIL for much of their time).  The two
share a ring of eight rows in an anonymous shared map and pass one byte a
level each way through two pipes; the child sends its two maxima back and
is reaped before the call returns.  Everywhere else the two interleave in
the calling process.

The lattice is periodic, the form on which the model is analysed; the
Dirichlet decaying-sine problem is marched in the finite-difference form.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import signal
import threading
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from .calibration import ModelParams
from .errors import DomainError
from .scheme import (_CHUNK, _LINE, _aligned, _check_node_steps, _cpus,
                     _plan, _weight_row, coefficients)

# The equivalence check holds thirteen node-length float64 arrays and no
# temporaries, about 105 B per node, when its window is one level (from
# about 2**14 nodes: a tracemalloc peak of 1.72 MB there).  A longer window
# stretches six of them to about one `_CHUNK` pass each (0.81 MB at 64
# nodes, 1.68 MB at 9,000).  A forked check holds nineteen, about 152 B
# per node: seven in the parent, the eight rows of the shared ring and four
# that the child allocates, which shares the parent's other pages until
# either writes to them.  So 2**21 nodes keep it near 320 MB.
_MAX_EQUIV_NODES = 2 ** 21

# Rows of the forked check's shared ring: the four levels that a
# prediction reads and compares, and four more that the collision may run
# ahead (16 rows were no faster in a scratch prototype).
_SHARED_ROWS = 8

# Node-steps (n_nodes x steps) from which the check forks: a fork and the
# reaping of its child cost 3-4 ms whatever the steps, more than a shorter
# check gains (BENCH_25.json `fork_break_even`).
_FORK_NODE_STEPS = 2 ** 21


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
    # row n % ring of `block`, and n is yielded once the ghost nodes of its
    # rows hold their periodic neighbours.  A row is whole cache lines of
    # eight nodes long, starts node 1 on a line and has a ghost node at each
    # end, which a strided copy fills with the level's last and first node.
    # Rows 0, 1 and 2 are handed on one by one; when `batched`, rows 3 ..
    # ring-1 are one window, handed on, and their ghosts filled in one copy,
    # at its last row or the trajectory's.  Otherwise every row is handed
    # on alone.  The last collision's populations are never read.
    ring = len(block)
    mids = list(block[:, 1:n_nodes + 1])
    ends = block[:, :n_nodes + 2:n_nodes + 1]
    wraps = block[:, n_nodes:0:1 - n_nodes]
    ghosts = list(zip(ends, wraps))
    if batched:
        ghosts[3:] = [(ends[3:], wraps[3:])] * (ring - 3)
    for n in range(steps + 1):
        t = n % ring
        collide(mids[t])
        if t < 3 or t == ring - 1 or n == steps or not batched:
            ghost, wrap = ghosts[t]
            ghost[...] = wrap
            yield n


def _deviation(levels, block, n_nodes: int, steps: int, table: list,
               batched: bool, scratch: list) -> tuple[float, float]:
    # The check's consumer: (max |gap|, max |phi|) over the rows of `block`
    # as `_produce` hands them on, each n that `levels` yields.  Rows 3 ..
    # ring-1 of a `batched` ring, as many as one `_CHUNK` pass holds, are a
    # window: one plan predicts them in one flat pass into `out`, which is
    # laid out alike, reading the old, previous and current levels from the
    # flat block at rows 0, 1 and 2 on; the padding after each row's ghosts
    # must be zero, so that a flat pass reads only finite values.  A last
    # window cut short at row t predicts every row and compares rows 3 .. t.
    # Every other row is predicted alone, with wrap, by one cyclic plan.
    # The plans' Dirichlet pins land on ghost nodes, which are never
    # compared.  They share one carried pair, scratch[0], of span - 2 nodes
    # (span: the flat length of a window): the window's last row hands it
    # on to the single rows, which hand it back only to a one-row window,
    # so a longer window adds it again.  scratch[1:] are the plans' two
    # work arrays.  |phi| is reduced over each group of rows at its last
    # row or the trajectory's: the whole ring when batched, else four rows,
    # none of which the forked check frees before its last row is taken.
    ring, width = block.shape
    span = scratch[0].shape[0] + 2
    out = _aligned((ring - 3 if batched else 1) * width, 1)
    gaps = out.reshape(-1, width)[:, 1:n_nodes + 1]
    mids = block[:, 1:n_nodes + 1]
    rows = list(block[:, :n_nodes + 2])
    flat = block.reshape(-1)
    flats = [flat[k * width:k * width + span] for k in range(3)]
    group, first = (ring, ring - 3) if batched else (4, 0)
    max_dev = max_phi = 0.0
    windowed = singles = None
    for n in levels:
        t = n % ring
        # Every level is in the block at one of these reductions.
        if t % group == group - 1 or n == steps:
            max_phi = _max_abs(mids[t - t % group:t + 1], max_phi)
        if n < 3:
            continue
        if batched and t >= 3:
            if windowed is None:
                ((windowed,),) = _plan(flats, [out[:span]], table,
                                       (0.0, 0.0), [(1, span)], scratch)
            else:
                np.add(flats[1][:-2], flats[1][2:], scratch[0])
            calls, gap, new = windowed, gaps[:t - 2], mids[3:t + 1]
        else:
            if singles is None:
                # Phase k predicts row (first + k + 3) % ring.
                (phases,) = _plan(
                    [rows[i % ring] for i in range(first, ring + 2)],
                    [out[:n_nodes + 2]] * (ring - first), table, (0.0, 0.0),
                    [(1, n_nodes + 2)],
                    (scratch[0][span - 2 - n_nodes:], *scratch[1:]))
                singles = cycle(phases)
            calls, gap, new = next(singles), gaps[0], mids[t]
        for fn, args in calls:
            fn(*args)
        np.subtract(gap, new, out=gap)
        max_dev = _max_abs(gap, max_dev)
    return float(max_dev), float(max_phi)


def _handed(levels_r: int, frees_w: int, steps: int):
    # The levels of a forked check as its child takes them: one byte from
    # the producer per level, and one byte back once level n is taken to
    # free the row of level n-3, when the producer will write into it.
    for n in range(steps + 1):
        if not os.read(levels_r, 1):
            raise EOFError("the producer stopped")
        yield n
        if 3 <= n <= steps + 3 - _SHARED_ROWS:
            os.write(frees_w, b"\0")


def _forked(collide, n_nodes: int, width: int, steps: int, table: list):
    # The check with its consumer in a forked child, which reads the levels
    # from a ring of `_SHARED_ROWS` rows of `width` nodes in shared memory
    # and sends its two maxima back; None if the fork is abandoned.  Both
    # processes raise on every floating-point event that the caller's
    # settings do not ignore.  Such an event, or any failure of the child,
    # abandons the fork; the child is reaped before the return either way.
    strict = {kind: "ignore" if mode == "ignore" else "raise"
              for kind, mode in np.geterr().items()}
    fds = []
    try:
        # An anonymous map starts a page, so node 1 of every row starts a
        # cache line, and it is zeroed.
        size = _SHARED_ROWS * width
        block = np.frombuffer(mmap.mmap(-1, 8 * size + _LINE), np.float64,
                              size, _LINE - 8).reshape(_SHARED_ROWS, width)
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    levels_r, levels_w, frees_r, frees_w = fds
    if pid == 0:
        code = 1
        try:
            os.close(levels_w)
            os.close(frees_r)
            scratch = [_aligned(n_nodes) for _ in range(3)]
            with np.errstate(**strict):
                maxima = _deviation(_handed(levels_r, frees_w, steps), block,
                                    n_nodes, steps, table, False, scratch)
            os.write(frees_w, np.array(maxima).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(levels_r)
    os.close(frees_w)
    data = b""
    try:
        with np.errstate(**strict):
            for n in _produce(collide, block, n_nodes, steps, False):
                os.write(levels_w, b"\0")
                # Level n+1 overwrites level n+1-ring once that is freed.
                # If the child has ended, this read gets no byte and the
                # next write raises BrokenPipeError.
                if _SHARED_ROWS - 1 <= n < steps:
                    os.read(frees_r, 1)
        data = os.read(frees_r, 16)
    except (FloatingPointError, OSError):
        pass
    finally:
        os.close(levels_w)
        os.close(frees_r)
        if len(data) < 16:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if len(data) < 16 or status:
        return None
    return tuple(np.frombuffer(data).tolist())


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
    trajectory is streamed through a ring of levels, three more than one
    pass of `scheme`'s kernel predicts at once: the whole trajectory of a
    short row, but four levels from about 2**14 nodes on.  There, when
    n_nodes x steps is at least 2**21, `os.fork` exists, the process may
    run on two or more CPUs, no other thread runs and SIGCHLD is not
    ignored, the prediction runs in one forked child: the collision
    hands it each level through a ring of eight levels in shared memory,
    one pipe byte per level each way, and it sends back the two maxima.
    The results have the same bits either way.  While the fork runs, both
    processes raise on every floating-point event that the caller's
    `np.geterr()` does not ignore; on such an event or any failure of the
    child, the child is reaped and the whole check runs again in this
    process, so warnings, errors and `np.seterrcall` callbacks come as
    without the fork.  No child outlives the call.  At most 2**21 nodes
    and, as in `scheme.run`, 2**36 node-steps (n_nodes x steps) are taken;
    the seed must be a non-negative integer.
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
    batched = _CHUNK // width > 1
    # A caller that ignores SIGCHLD has its children reaped by the kernel,
    # so a child could be neither waited for nor safely killed.
    if (not batched and n_nodes * steps >= _FORK_NODE_STEPS
            and hasattr(os, "fork") and _cpus() > 1
            and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN):
        maxima = _forked(collision(*(_aligned(n_nodes) for _ in range(3))),
                         n_nodes, width, steps, table)
        if maxima is not None:
            return maxima
    ring = min(steps + 1, 3 + max(1, _CHUNK // width))
    span = (ring - 4) * width + n_nodes + 2
    block = _aligned(ring * width, 1).reshape(ring, width)
    block[:, n_nodes + 2:] = 0.0
    # The plans borrow two of the collision's work arrays.
    work = [_aligned(span - 2), _aligned(span - 2), _aligned(n_nodes)]
    levels = _produce(collision(*work), block, n_nodes, steps, batched)
    return _deviation(levels, block, n_nodes, steps, table, batched,
                      [_aligned(span - 2), *work[:2]])
