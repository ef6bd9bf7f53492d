"""Mesoscopic D1Q3 MRT update for the 1D diffusion equation.

Populations stream with velocities (-c, 0, c), c = dx/dt, and collide in
moment space.  The moment transform and its exact inverse are

    M = [[1,    1,     1  ],          M_inv = [[1/3, -1/(2c), 1/(6c^2)],
         [-c,   0,     c  ],                   [1/3,  0,     -1/(3c^2)],
         [c^2, -2c^2,  c^2]]                   [1/3,  1/(2c), 1/(6c^2)]]

with the population order (f_minus, f_zero, f_plus).  The macroscopic field
carries the trapezoidal half-step source correction,
phi = f_minus + f_zero + f_plus + dt*R/2, and equilibria are weight shares
of phi.  Each helper (`initialize`, `macro_phi`, `equilibrium`,
`lattice_matrices`, `evolve`) reads what it needs from the one
`calibration.ModelParams` record of the run.  `evolve` applies the
collision in its fully substituted population form (cheap, no matrix
products); `evolve_matrix_form` applies the raw moment-space definition
with explicit M, S, M_inv products.  Both walk the same trajectory to
rounding error, and the conserved-moment rate s0 drops out exactly because
the conserved moment already equals its equilibrium.

`evolve` and `fd_equivalence_deviation` share one in-place kernel that
collides and streams three preallocated population arrays with slice
operations, its scalars held as 0-d arrays.  The equivalence check streams
the trajectory through it and holds only the latest four macroscopic
levels, so its memory grows with the node count, not with nodes times
steps.  The levels are rows of one block, each with a ghost node at either
end that holds its periodic neighbour, so the four-level kernel of
`scheme` predicts a level in one flat pass over the padded row, and each
array starts a 64-byte cache line at the first node that a kernel writes.

Only periodic streaming is supported at this level; bounded domains are the
business of the equivalent finite-difference form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .calibration import ModelParams
from .errors import DomainError
from .scheme import (BoundarySpec, _aligned, _calls, _check_node_steps,
                     _plan, _weight_row, coefficients)

# The equivalence check holds thirteen node-length float64 arrays (three
# populations, four padded level rows, the prediction and its carried pair,
# three work arrays and the start field) and no temporaries: its tracemalloc
# peak is 105 B per node at 2**14 nodes, so 2**21 nodes keep it near 220 MB.
_MAX_EQUIV_NODES = 2 ** 21


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


def macro_phi(f: DistributionField, params: ModelParams) -> np.ndarray:
    """Macroscopic field with the half-step source correction."""
    return f.f_minus + f.f_zero + f.f_plus + 0.5 * params.dt * params.source_R


def initialize(phi0: np.ndarray, params: ModelParams) -> DistributionField:
    """Equilibrium populations whose macroscopic field equals phi0."""
    base = np.asarray(phi0, dtype=float) - 0.5 * params.dt * params.source_R
    fm, f0, fp = equilibrium(base, params)
    return DistributionField(fm, f0, fp)


def _collision_constants(params: ModelParams, dtype) -> tuple:
    # The scalar operands of `_collide_stream`, as 0-d arrays of the
    # populations' dtype: a ufunc takes one faster than a Python float and
    # rounds it alike.
    omega0, omega1, s1, s2 = params.omega0, params.omega1, params.s1, params.s2
    dt_R = params.dt * params.source_R
    return tuple(np.array(value, dtype) for value in (
        0.5 * params.dt * params.source_R, 0.5 * s1, 0.5 * s2,
        0.5 * omega0 * s2, 1.0 - s2, omega0 * s2,
        omega0 * (1.0 - s2 / 2.0) * dt_R,
        (omega1 + omega0 * s2 / 4.0) * dt_R))


def _collide_stream(f_minus, f_zero, f_plus, consts, phi, asym, pull,
                    tmp) -> None:
    # One periodic update of the three population arrays, in place.  `phi`
    # receives the macroscopic field of the incoming populations; asym,
    # pull and tmp are scratch of the same shape, and `consts` comes from
    # `_collision_constants`.  Each term is summed in the order of the
    # substituted population form, written out in `evolve`'s docstring,
    # and the last addition of each moving population lands one node
    # downstream, so streaming costs no extra pass.
    (half_src, half_s1, half_s2, half_omega0_s2, keep_zero, omega0_s2,
     zero_src, moving_src) = consts
    np.add(f_minus, f_zero, out=phi)
    np.add(phi, f_plus, out=phi)
    np.add(phi, half_src, out=phi)
    np.subtract(f_minus, f_plus, out=asym)
    np.multiply(asym, half_s1, out=asym)
    np.multiply(f_zero, half_s2, out=pull)
    np.multiply(phi, half_omega0_s2, out=tmp)
    np.subtract(pull, tmp, out=pull)
    np.multiply(f_zero, keep_zero, out=f_zero)
    np.multiply(phi, omega0_s2, out=tmp)
    np.add(f_zero, tmp, out=f_zero)
    np.add(f_zero, zero_src, out=f_zero)
    np.subtract(f_minus, asym, out=tmp)
    np.add(tmp, pull, out=tmp)
    np.add(tmp[1:], moving_src, out=f_minus[:-1])
    np.add(tmp[:1], moving_src, out=f_minus[-1:])
    np.add(f_plus, asym, out=tmp)
    np.add(tmp, pull, out=tmp)
    np.add(tmp[:-1], moving_src, out=f_plus[1:])
    np.add(tmp[-1:], moving_src, out=f_plus[:1])


def _max_abs(x: np.ndarray, acc):
    # max(acc, max|x|), reading max|x| as max(max x, -min x), which is exact
    # and writes nothing; a NaN in x or in acc gives NaN.
    top = np.maximum.reduce(x, None)
    return top if top != top else max(acc, top, -np.minimum.reduce(x, None))


def evolve(f: DistributionField, params: ModelParams,
           boundary: BoundarySpec) -> DistributionField:
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
    is left untouched.  Only periodic streaming is supported; any other
    boundary raises DomainError.
    """
    if boundary.kind != "periodic":
        raise DomainError(
            "the mesoscopic update only streams periodically; use the "
            "finite-difference form for bounded domains")
    pops = (f.f_minus, f.f_zero, f.f_plus)
    dtype = np.result_type(*pops, 1.0)
    new = [np.array(p, dtype=dtype) for p in pops]
    work = [np.empty_like(new[0]) for _ in range(4)]
    _collide_stream(*new, _collision_constants(params, dtype), *work)
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
    return DistributionField(
        f_minus=np.roll(post[0], -1),
        f_zero=post[1].copy(),
        f_plus=np.roll(post[2], 1))


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
    trajectory is streamed: only the latest four levels are held.  At most
    2**21 nodes and, as in `scheme.run`, 2**36 node-steps (n_nodes x steps)
    are taken; the seed must be a non-negative integer.
    """
    try:
        n_nodes, steps, seed = (operator.index(v)
                                for v in (n_nodes, steps, seed))
    except TypeError:
        raise DomainError("n_nodes, steps and seed must be "
                          "integers") from None
    if not 8 <= n_nodes <= _MAX_EQUIV_NODES:
        raise DomainError(f"need 8 to {_MAX_EQUIV_NODES} nodes, got {n_nodes}")
    if steps < 3:
        raise DomainError("need at least 3 steps")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    _check_node_steps(n_nodes, steps)
    rng = np.random.default_rng(seed)
    params = ModelParams(omega0, s1, s2, dx=1.0, dt=1.0, source_R=source_R)
    # The equilibrium of `initialize`, built straight into buffers that start
    # a cache line, as do all below: the collision writes whole arrays.
    base = rng.random(n_nodes) - 0.5 * params.dt * params.source_R
    pops = [np.multiply(share, base, out=_aligned(n_nodes))
            for share in (params.omega1, params.omega0, params.omega1)]
    consts = _collision_constants(params, np.float64)
    table = [_weight_row(coefficients(omega0, s1, s2), params.dt,
                         params.source_R)]
    # Level n goes into the middle of row n % 4 of one block.  A row is
    # whole cache lines of eight nodes long, starts node 1 on a line and
    # has a ghost node at each end, which one strided copy fills with the
    # level's last and first node.  So phase (n - 3) % 4 of a plan over the
    # padded rows predicts level n from the three before in one flat pass,
    # into `predicted`, which is laid out alike; the plan's Dirichlet pins
    # land on its ghost nodes, which are never compared.  The prediction
    # borrows two of the collision's work arrays, so the check sweeps twelve
    # node-length arrays: 1.5 MiB at 2**14 nodes, inside a 2 MiB L2 cache.
    # Two arrays more measured 3-5% slower there.
    width = -(-(n_nodes + 2) // 8) * 8
    block = _aligned(4 * width, 1).reshape(4, width)
    rows = list(block[:, :n_nodes + 2])
    levels = block[:, 1:n_nodes + 1]
    mids = list(levels)
    ghosts = [(row[::n_nodes + 1], row[n_nodes:0:1 - n_nodes])
              for row in rows]
    predicted = _aligned(n_nodes + 2, 1)
    gap = predicted[1:-1]
    work = [_aligned(n_nodes) for _ in range(3)]
    max_dev = max_phi = 0.0
    for n in range(steps + 1):
        new = mids[n % 4]
        if n < steps:
            _collide_stream(*pops, consts, new, *work)
        else:
            # `macro_phi` of the last populations, with no temporaries.
            np.add(pops[0], pops[1], out=new)
            np.add(new, pops[2], out=new)
            np.add(new, consts[0], out=new)
        ghost, wrap = ghosts[n % 4]
        ghost[...] = wrap
        # Every level is in the block at one of these reductions.
        if n % 4 == 3 or n == steps:
            max_phi = _max_abs(levels, max_phi)
        if n == 2:
            phases = [_calls(phase) for phase in _plan(
                rows, [predicted] * 4, table, BoundarySpec.dirichlet(0.0, 0.0),
                [(1, n_nodes + 2)], work[:2])]
        elif n > 2:
            for fn, args in phases[(n - 3) % 4]:
                fn(*args)
            np.subtract(gap, new, out=gap)
            max_dev = _max_abs(gap, max_dev)
    return float(max_dev), float(max_phi)
