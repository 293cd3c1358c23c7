"""Correlation and coherence measures for probe-plus-register states.

Quantum discord is computed with the measurement on the probe qubit:

    D = S(rho_probe) - S(rho) + min over projective probe measurements
        of sum_k p_k S(rho_data | k).

For the protocol's output state, ``protocol_discord`` needs only alpha
and the step block's kind counts (``StepBlock.kinds``): the spectrum
mod pi is a binomial lattice over the rotated qubits, no dense state is
built, and the cost is polynomial in n.  The measures of an arbitrary
dense state (``quantum_discord``, mutual information, the
partial-transpose check, coherence) are the reference in
``tests/dense_reference.py``.
The measurement angle is searched by nested grids of one vectorized
objective (``_nested_grid_min``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuits import StepBlock
from .dqc1 import require_real

_TINY = sys.float_info.min
#: cells of each level of the nested grids over [0, pi/2]
_PHI_GRID = 32
#: the nested grids stop once their spacing falls below this (rad)
_PHI_TOL = 1e-7


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), zero at both endpoints."""
    if not 0.0 <= require_real(x, "x") <= 1.0:
        raise ValueError(f"argument {x} outside [0, 1]")
    acc = 0.0
    for t in (x, 1.0 - x):
        if t > 0.0:
            acc -= t * math.log2(t)
    return acc


def coherence_consumption(alpha: float, tau_abs: float) -> float:
    """Probe coherence spent to read a block of normalized trace magnitude
    tau_abs: H2((1 - alpha tau_abs)/2) - H2((1 - alpha)/2)."""
    if not 0.0 <= require_real(alpha, "alpha") <= 1.0:
        raise ValueError("alpha outside [0, 1]")
    if not 0.0 <= require_real(tau_abs, "tau_abs") <= 1.0:
        raise ValueError("tau_abs outside [0, 1]")
    return binary_entropy((1.0 - alpha * tau_abs) / 2.0) - binary_entropy(
        (1.0 - alpha) / 2.0
    )


@dataclass(frozen=True)
class DiscordResult:
    """Minimized discord, the optimal probe measurement direction (Bloch
    angles; ``protocol_discord`` searches phi over [0, pi/2]) and the
    number of refinement evaluations spent."""

    discord: float
    measurement_theta: float
    measurement_phi: float
    iterations: int


def _nested_grid_min(objective) -> tuple[float, float, int]:
    """(phi, value, evaluations after level 0) of the minimum of a vectorized
    objective over [0, pi/2] by nested grids.  Level 0 is _PHI_GRID + 1
    points of spacing h = pi/2 / _PHI_GRID; each later level puts as many
    points of spacing 2h / _PHI_GRID over [phi - h, phi + h] around the
    best angle so far, clamped to [0, pi/2], and h becomes that spacing.
    The search stops once h falls below _PHI_TOL, after a fixed number of
    levels; the best angle so far is a point of every later level, so no
    level loses it."""
    h = math.pi / 2.0 / _PHI_GRID
    phis = np.arange(_PHI_GRID + 1) * h
    offsets = np.arange(_PHI_GRID + 1) - _PHI_GRID // 2
    evals = 0
    while True:
        values = objective(phis)
        best = int(values.argmin())
        phi, value = float(phis[best]), float(values[best])
        if h < _PHI_TOL:
            return phi, value, evals
        h *= 2.0 / _PHI_GRID
        phis = np.minimum(np.maximum(phi + offsets * h, 0.0), math.pi / 2.0)
        evals += phis.size


def _binary_entropy_array(x: np.ndarray) -> np.ndarray:
    """Elementwise H2, with x clipped into [0, 1]: arguments such as
    (1 - alpha cos)/2 at alpha = 1 can round a hair outside it.  A log2
    argument is raised to the smallest normal float, so 0 log 0 comes out
    +0.0 with no mask and no warning."""
    # np.minimum(np.maximum(...)) is np.clip without its Python wrappers
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    y = 1.0 - x
    return 0.0 - x * np.log2(np.maximum(x, _TINY)) - y * np.log2(np.maximum(y, _TINY))


def _binomial_weights(k: int) -> np.ndarray:
    """C(k, m) / 2^k for m = 0..k, each a correctly rounded quotient of two
    ints; the C(k, m) come from the recurrence C(k, m+1) = C(k, m)(k-m)/(m+1)."""
    scale = 2**k
    weights = np.empty(k + 1)
    count = 1
    for m in range(k + 1):
        weights[m] = count / scale
        count = count * (k - m) // (m + 1)
    return weights


def _spectrum(block: StepBlock) -> tuple[np.ndarray, np.ndarray]:
    """Phases of the block's eigenvalues mod pi, with weights that sum to 1.

    The discord objective has period pi in each phase, and mod pi a
    factor's pair of phases is (0, 0) for the identity and sx, and
    +-g(t) for R (t = 0) and R . sx (t = phi), with

        g(t) = atan2(sin(theta/2) cos t, hypot(cos(theta/2), sin(theta/2) sin t)).

    k qubits that share g give the phases (k - 2m) g with weights
    C(k, m) / 2^k.  At phi = 0 the two rotated kinds share g bit for
    bit and form one binomial; otherwise r R qubits and b R . sx qubits
    give an (r+1)(b+1) lattice.  Phases whose weight rounds to 0.0 are
    dropped.
    """
    _, _, rotated, both = block.kinds
    s, c = math.sin(block.theta / 2.0), math.cos(block.theta / 2.0)
    counts: dict[float, int] = {}
    for t, count in ((0.0, rotated), (block.phi, both)):
        g = math.atan2(s * math.cos(t), math.hypot(c, s * math.sin(t)))
        counts[g] = counts.get(g, 0) + count
    phases, weights = np.zeros(1), np.ones(1)
    for g, k in counts.items():
        lattice = (k - 2 * np.arange(k + 1)) * g
        phases = np.add.outer(phases, lattice).ravel()
        weights = np.multiply.outer(weights, _binomial_weights(k)).ravel()
    kept = weights > 0.0
    return phases[kept], weights[kept]


def protocol_discord(block: StepBlock, alpha: float) -> DiscordResult:
    """Probe-side discord of the one-clean-qubit output state for `block`.

    In the eigenbasis of the block the state is a direct sum of probe
    blocks with Bloch vectors alpha (cos l_k, sin l_k), so with weights
    w_k on the eigenvalue phases l_k (``_spectrum``) and tau = tr(block)/2^n

        D = H2((1 - alpha|tau|)/2) - H2((1 - alpha)/2)
            + min_phi [sum_k w_k H2((1 - alpha cos(l_k - phi))/2)
                       - H2((1 - alpha Re(tau e^{-i phi}))/2)].

    An equatorial measurement is optimal (a tilted one is a garbling of
    it), and the bracket is even in phi with period pi (the phases come
    in pairs +-l_k and tau is real or imaginary), so phi is searched over
    [0, pi/2] only, by ``_nested_grid_min``; ``iterations`` counts its
    evaluations after the first grid.  The quadratures alpha cos l_k,
    alpha sin l_k and alpha tau are computed once, so that with
    alpha cos(l_k - phi) = cos(phi) alpha cos l_k + sin(phi) alpha sin l_k
    each level of the search is two outer products and a few array
    operations.
    """
    if not 0.0 <= require_real(alpha, "alpha") <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    phases, weights = _spectrum(block)
    tau = block.tau()
    ac, as_ = alpha * np.cos(phases), alpha * np.sin(phases)
    ar, ai = alpha * tau.real, alpha * tau.imag

    def objective(phis: np.ndarray) -> np.ndarray:
        cos, sin = np.cos(phis), np.sin(phis)
        spread = _binary_entropy_array(
            (1.0 - (np.multiply.outer(cos, ac) + np.multiply.outer(sin, as_))) / 2.0
        )
        readout = _binary_entropy_array((1.0 - (cos * ar + sin * ai)) / 2.0)
        return spread @ weights - readout

    p_best, f_best, evals = _nested_grid_min(objective)
    discord = coherence_consumption(alpha, abs(tau)) + f_best
    if discord < -1e-9:
        raise RuntimeError(f"discord came out {discord:.3e}; optimizer failed")
    return DiscordResult(
        discord=max(0.0, discord),
        measurement_theta=math.pi / 2.0,
        measurement_phi=p_best,
        iterations=evals,
    )
