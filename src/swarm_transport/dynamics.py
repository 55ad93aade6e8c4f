"""Fourth-order per-axis agent model with a snap-level tracking law.

State is (4, n): position, velocity, acceleration, jerk rows. The control
commands snap from the state and a held desired position; coordinates never
mix, so an n-dimensional agent is n independent scalar chains. Arrays with
a leading batch axis, shape (N, 4, n), integrate all agents at once. With
the desired position held, RK4 advances each chain's error state by one 4x4
matrix (``rk4_map``), whose spectral radius below 1 is RK4's stability test.

Over many steps that map is a linear recurrence in the error state
e = x - p e0 about a fixed point p, driven by the held inputs u = r_d - p:
e' = Phi e + (I - Phi) e0 u. ``block_maps`` stacks its powers and the lower
block-Toeplitz input map once per run, so ``advance`` moves any set of
chains through a block of steps in one matrix product, testing the
divergence bound at every step; ``step`` is the one-step form.
``position_maps`` keeps only the columns a block needs to go on, the
positions at each step and the full state at its end, a quarter of the
product. Their rows are never bound-tested one by one: ``bound_factors``
and ``certified`` bound every entry of the full product, rounding included,
from the largest start state and input of the block (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002, section 3.1), and a block they
cannot clear is rerun through ``advance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Diverged

DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class Gains:
    k1: float
    k2: float
    k3: float
    k4: float


# Quadruple pole at -2: settles in roughly 3-4 s, comfortably inside a
# 25 s mission window.
DEFAULT_GAINS = Gains(8.0, 24.0, 32.0, 16.0)


def check_hurwitz(gains: Gains) -> bool:
    """Routh-Hurwitz test for s^4 + k1 s^3 + k2 s^2 + k3 s + k4."""
    k1, k2, k3, k4 = gains.k1, gains.k2, gains.k3, gains.k4
    if min(k1, k2, k3, k4) <= 0.0:
        return False
    return k1 * k2 > k3 and (k1 * k2 - k3) * k3 > k1 * k1 * k4


def initial_state(position) -> np.ndarray:
    """State at rest at ``position``: all derivatives zero."""
    pos = np.asarray(position, dtype=float)
    state = np.zeros(pos.shape[:-1] + (4,) + pos.shape[-1:])
    state[..., 0, :] = pos
    return state


def virtual_control(state: np.ndarray, r_d, gains: Gains) -> np.ndarray:
    """Snap command: -k1*jerk - k2*accel - k3*vel + k4*(r_d - pos)."""
    state = np.asarray(state, dtype=float)
    r_d = np.asarray(r_d, dtype=float)
    return (
        -gains.k1 * state[..., 3, :]
        - gains.k2 * state[..., 2, :]
        - gains.k3 * state[..., 1, :]
        + gains.k4 * (r_d - state[..., 0, :])
    )


def rk4_map(gains: Gains, dt: float) -> np.ndarray:
    """RK4's 4x4 step matrix for one chain's error state: sum_{j=0..4} (dt A)^j / j!,
    with A the companion matrix whose last row is the control law."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    h = dt * np.eye(4, k=1)
    h[3] = dt * virtual_control(np.eye(4), np.zeros(4), gains)
    phi = term = np.eye(4)
    for j in range(1, 5):
        term = term @ h / j
        phi = phi + term
    return phi


def step(state: np.ndarray, r_d, phi: np.ndarray) -> np.ndarray:
    """One RK4 update with ``r_d`` held, ``phi = rk4_map(gains, dt)`` applied to
    the error state: an agent at rest on its ``r_d`` stays bitwise fixed. The
    product is summed elementwise in a fixed order, not by BLAS, whose one- and
    many-column kernels round differently, so no agent's result depends on the
    batch or the axes it is stepped with."""
    state = np.asarray(state, dtype=float)
    nd = state.ndim
    e = state.transpose(nd - 2, *range(nd - 2), nd - 1).copy()  # (4, ..., n)
    e[0] -= r_d
    p = phi.reshape((4, 4) + (1,) * (nd - 1)) * e
    out = p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    out[0] += r_d
    if not np.max(np.abs(out)) <= DIVERGENCE_THRESHOLD:  # also true for NaN and inf
        raise Diverged(f"state magnitude exceeded {DIVERGENCE_THRESHOLD:g}")
    return out.transpose(*range(1, nd - 1), 0, nd - 1)


def block_maps(phi: np.ndarray, size: int) -> np.ndarray:
    """The (4 + size, 4 size) map taking a chain's row [e | u_0..u_{size-1}]
    of error state and held inputs to its error states after 1..size steps,
    side by side. Column block m-1 is the transpose of
    [Phi^m | Phi^(m-1) g, ..., Phi g, g, 0, ..., 0] with g = (I - Phi) e0."""
    g = np.eye(4)[:, 0] - phi[:, 0]
    powers = [np.eye(4)]
    for _ in range(size):
        powers.append(phi @ powers[-1])
    lag = np.arange(size)[:, None] - np.arange(size)  # m-1-j: steps since input j
    inputs = np.stack([q @ g for q in powers[:size]])[np.maximum(lag, 0)]  # (m, j, 4)
    inputs[lag < 0] = 0.0
    by_step = np.concatenate([np.stack(powers[1:]), inputs.transpose(0, 2, 1)], axis=2)  # (m, 4, 4+size)
    return by_step.reshape(4 * size, 4 + size).T


def advance(maps: np.ndarray, z: np.ndarray, p: np.ndarray, out: np.ndarray) -> int:
    """Advance C chains through m = out.shape[1] // 4 steps at once, in error
    coordinates about their fixed points ``p`` (shape (C,)).

    Row c of ``z`` (C, 4 + m) is chain c's error state x - p e0, then its
    held inputs u_j = r_d(j) - p of the m steps; ``maps = block_maps(phi,
    size)`` for any size >= m. Row c of ``out`` (C, 4 m) receives the chain's
    error states after 1..m steps, one 4-block per step. A chain with zero
    error and zero inputs stays exactly zero. Returns how many leading steps
    keep every state row, positions included, within the divergence bound:
    m unless some chain diverges, in which case the later states in ``out``
    may be huge or not finite.
    """
    m = out.shape[1] // 4
    np.matmul(z, maps[: 4 + m, : 4 * m], out=out)
    positions = np.abs(out[:, 0::4] + p[:, None]).max(axis=0)
    rates = np.abs(out).max(axis=0).reshape(m, 4)[:, 1:].max(axis=1)
    ok = np.maximum(positions, rates) <= DIVERGENCE_THRESHOLD  # also false for NaN and inf
    return m if ok.all() else int(np.argmin(ok))


def position_maps(maps: np.ndarray, m: int) -> np.ndarray:
    """The (4 + m, m + 3) columns of ``maps = block_maps(phi, size)``, for
    1 <= m <= size steps, giving a chain's error position after each of steps
    1..m, then its velocity, acceleration and jerk after step m."""
    cols = np.concatenate([np.arange(0, 4 * m, 4), 4 * m - 3 + np.arange(3)])
    return np.ascontiguousarray(maps[: 4 + m, cols])


def bound_factors(maps: np.ndarray) -> tuple[float, float]:
    """(S, I): the largest column sums of |maps| over its 4 state rows and over
    its input rows. Every entry of ``z @ maps`` is then at most
    S max|e| + I max|u| times 1 + gamma_(4+size), in any summation order."""
    a = np.abs(maps)
    return float(a[:4].sum(axis=0).max()), float(a[4:].sum(axis=0).max())


def certified(factors: tuple[float, float], e_max: float, u_max: float, p_max: float) -> bool:
    """Whether chains whose error states start within ``e_max``, whose held
    inputs stay within ``u_max`` and whose fixed points lie within ``p_max``
    keep every state row, positions included, within the divergence bound
    through a block of ``block_maps`` steps: the test ``advance`` makes at
    every step, passed by all of them at once. False for NaN and inf."""
    s, i = factors
    return bool((s * e_max + i * u_max) * (1.0 + 1e-9) + p_max <= DIVERGENCE_THRESHOLD)
