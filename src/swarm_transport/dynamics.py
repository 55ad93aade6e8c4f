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
block-Toeplitz input map, positions first, so one matrix product moves any
set of chains through a block of steps: the positions at every step and the
full state at the block's end. ``step`` is the one-step form and the one
divergence test, of each agent's offset from the reference it tracks, so
it reads the same wherever the team stands. A block is not tested step by
step when ``certified`` clears it: ``block_maps``'s factors bound every
offset in the block, rounding included, from its largest start state and
input (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
section 3.1); only a block they cannot clear is replayed through ``step``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Diverged

DIVERGENCE_THRESHOLD = 1e6  # largest offset from its reference, in any state row, an agent may reach


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
    batch or the axes it is stepped with. It is the one divergence test, of
    the new state's offset from ``r_d``: the closed loop moves blocks by
    ``block_maps`` and replays through ``step`` a block that ``certified``
    cannot clear; the tests' oracle steps with it, and the traced benchmark
    run (``perfbench/layers.py``) wraps it by name."""
    state = np.asarray(state, dtype=float)
    nd = state.ndim
    e = state.transpose(nd - 2, *range(nd - 2), nd - 1).copy()  # (4, ..., n)
    e[0] -= r_d
    p = phi.reshape((4, 4) + (1,) * (nd - 1)) * e
    out = p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    if not np.max(np.abs(out)) <= DIVERGENCE_THRESHOLD:  # also true for NaN and inf
        raise Diverged(f"offset from the reference exceeded {DIVERGENCE_THRESHOLD:g}")
    out[0] += r_d
    return out.transpose(*range(1, nd - 1), 0, nd - 1)


def block_maps(phi: np.ndarray, size: int) -> tuple[np.ndarray, tuple[float, float]]:
    """(maps, factors) for a block of ``size`` steps. ``maps`` is the
    (4 + size, size + 3) map taking a chain's row [e | u_0..u_{size-1}] of
    error state and held inputs to its positions after steps 1..size, then
    its velocity, acceleration and jerk after step size, so from column
    size - 1 on it gives the full state at the block's end. The state after
    step k is the transpose of [Phi^k | Phi^(k-1) g, ..., Phi g, g, 0, ...,
    0] with g = (I - Phi) e0; a chain with zero error and zero inputs stays
    exactly zero. ``factors`` is (S, I), the largest sums of the absolute
    coefficients on the 4 state entries and on the inputs over every state
    row of every step: every error state in the block is then at most
    S max|e| + I max|u| times 1 + gamma_(4+size), in any summation order,
    and so is every state of a shorter block."""
    g = np.eye(4)[:, 0] - phi[:, 0]
    powers = [np.eye(4)]
    for _ in range(size):
        powers.append(phi @ powers[-1])
    lag = np.arange(size)[:, None] - np.arange(size)  # k-1-j: steps since input j
    inputs = np.stack([q @ g for q in powers[:size]])[np.maximum(lag, 0)]  # (k, j, 4)
    inputs[lag < 0] = 0.0
    by_step = np.concatenate([np.stack(powers[1:]), inputs.transpose(0, 2, 1)], axis=2)  # (k, 4, 4+size)
    a = np.abs(by_step)
    factors = float(a[:, :, :4].sum(axis=2).max()), float(a[:, :, 4:].sum(axis=2).max())
    return np.ascontiguousarray(np.concatenate([by_step[:, 0], by_step[-1, 1:]]).T), factors


def certified(factors: tuple[float, float], e_max: float, u_max: float) -> bool:
    """Whether chains whose error states start within ``e_max`` and whose
    held inputs stay within ``u_max`` keep their offsets within the
    divergence bound through a block of ``block_maps`` steps with these
    ``factors``, the test ``step`` makes at every step: an offset is an
    error state less one input. False for NaN and inf."""
    s, i = factors
    return bool((s * e_max + i * u_max) * (1.0 + 1e-9) + u_max <= DIVERGENCE_THRESHOLD)
