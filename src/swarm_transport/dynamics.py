"""Fourth-order per-axis agent model with a snap-level tracking law.

State is (4, n): position, velocity, acceleration, jerk rows. The control
commands snap from the state and a held desired position; coordinates never
mix, so an n-dimensional agent is n independent scalar chains. Arrays with
a leading batch axis, shape (N, 4, n), integrate all agents at once. With
the desired position held, RK4 advances each chain's error state by one 4x4
matrix (``rk4_map``), whose spectral radius below 1 is RK4's stability test.
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
