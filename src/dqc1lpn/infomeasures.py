"""Correlation and coherence measures for probe-plus-register states.

Quantum discord is computed with the measurement on the probe qubit:

    D = S(rho_probe) - S(rho) + min over projective probe measurements
        of sum_k p_k S(rho_data | k).

For the protocol's output state, ``protocol_discord`` needs only alpha
and the step block's kind counts (``StepBlock.kinds``): the spectrum
mod pi is a binomial lattice over the rotated qubits, no dense state is
built, and the cost is polynomial in n.  The measures of an arbitrary
dense state (``quantum_discord``, mutual information, the
partial-transpose check, coherence) are the reference in ``qstate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import StepBlock

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: measurement angles phi in [0, pi) that protocol_discord scans first
_PHI_GRID = 64


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), zero at both endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument {x} outside [0, 1]")
    acc = 0.0
    for t in (x, 1.0 - x):
        if t > 0.0:
            acc -= t * math.log2(t)
    return acc


def coherence_consumption(alpha: float, tau_abs: float) -> float:
    """Probe coherence spent to read a block of normalized trace magnitude
    tau_abs: H2((1 - alpha tau_abs)/2) - H2((1 - alpha)/2)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha outside [0, 1]")
    if not 0.0 <= tau_abs <= 1.0:
        raise ValueError("tau_abs outside [0, 1]")
    return binary_entropy((1.0 - alpha * tau_abs) / 2.0) - binary_entropy(
        (1.0 - alpha) / 2.0
    )


@dataclass(frozen=True)
class DiscordResult:
    """Minimized discord plus the optimal probe measurement direction
    (Bloch angles) and the number of refinement evaluations spent."""

    discord: float
    measurement_theta: float
    measurement_phi: float
    iterations: int


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Golden-section minimum of f on [lo, hi] to bracket width tol."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        evals += 1
    x = c if fc <= fd else d
    return x, min(fc, fd), evals


def _binary_entropy_array(x: np.ndarray) -> np.ndarray:
    """Elementwise H2, with x clipped into [0, 1]: arguments such as
    (1 - alpha cos)/2 at alpha = 1 can round a hair outside it."""
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    for t in (x, 1.0 - x):
        pos = t > 0.0
        out[pos] -= t[pos] * np.log2(t[pos])
    return out


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
    it), and the bracket has period pi in phi.  The minimum is a
    _PHI_GRID-point grid over [0, pi) refined by a golden-section search
    on the best cell down to 1e-6 rad; ``iterations`` counts the
    refinement evaluations.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    phases, weights = _spectrum(block)
    tau = block.tau()

    def objective(phi: np.ndarray) -> np.ndarray:
        spread = _binary_entropy_array(
            (1.0 - alpha * np.cos(np.subtract.outer(phi, phases))) / 2.0
        )
        readout = (tau.real * np.cos(phi) + tau.imag * np.sin(phi)) * alpha
        return spread @ weights - _binary_entropy_array((1.0 - readout) / 2.0)

    step = math.pi / _PHI_GRID
    grid = np.arange(_PHI_GRID) * step
    values = objective(grid)
    best = int(values.argmin())
    p_best, f_best = float(grid[best]), float(values[best])
    p_new, f_new, evals = _golden_min(
        lambda q: float(objective(np.array([q]))[0]),
        p_best - step, p_best + step, 1e-6,
    )
    if f_new < f_best:
        p_best, f_best = p_new % math.pi, f_new
    s_probe, s_block = _binary_entropy_array(
        np.array([(1.0 - alpha * abs(tau)) / 2.0, (1.0 - alpha) / 2.0])
    )
    discord = float(s_probe - s_block) + f_best
    if discord < -1e-9:
        raise RuntimeError(f"discord came out {discord:.3e}; optimizer failed")
    return DiscordResult(
        discord=max(0.0, discord),
        measurement_theta=math.pi / 2.0,
        measurement_phi=p_best,
        iterations=evals,
    )
