"""Correlation and coherence measures for probe-plus-register states.

Quantum discord is computed with the measurement on the probe qubit:

    D = S(rho_probe) - S(rho) + min over projective probe measurements
        of sum_k p_k S(rho_data | k).

For an arbitrary state, ``quantum_discord`` runs a coarse Bloch-sphere
grid (vectorized through the probe-block decomposition of the state)
followed by coordinate descent with golden-section line searches.  For
the protocol's own output state, ``protocol_discord`` needs only alpha
and the step block's eigenphases (``StepBlock.eigenphases``): no dense
state is built, and the cost is polynomial in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .circuits import StepBlock
from .qstate import DensityMatrix

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


def rel_entropy_coherence(rho: DensityMatrix) -> float:
    """Relative entropy of coherence S(diag(rho)) - S(rho) in the
    computational basis."""
    diag = np.clip(rho.entries.diagonal().real, 0.0, 1.0)
    pos = diag[diag > 0]
    s_diag = float(-(pos * np.log2(pos)).sum())
    return max(0.0, s_diag - qstate.von_neumann_entropy(rho))


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


def _probe_front(mat: np.ndarray, probe: int, k: int) -> np.ndarray:
    """Permute qubit `probe` to the most significant position."""
    if probe == 0:
        return mat
    perm = [probe] + [q for q in range(k) if q != probe]
    axes = perm + [k + q for q in perm]
    dim = 2**k
    return mat.reshape([2] * (2 * k)).transpose(axes).reshape(dim, dim)


def _probe_blocks(rho: DensityMatrix, probe: int) -> np.ndarray:
    """(2, 2, D, D) array b with b[i, j] = <i|_probe rho |j>_probe."""
    k = rho.num_qubits
    if not 0 <= probe < k:
        raise ValueError(f"probe index {probe} outside 0..{k - 1}")
    if k < 2:
        raise ValueError("state must hold the probe plus at least one qubit")
    mat = _probe_front(rho.entries, probe, k)
    half = 2 ** (k - 1)
    return mat.reshape(2, half, 2, half).transpose(0, 2, 1, 3)


def _conditional_entropy_batch(
    thetas: np.ndarray, phis: np.ndarray, blocks: np.ndarray, rho_data: np.ndarray
) -> np.ndarray:
    """sum_k p_k S(rho_data|k) for a batch of measurement directions.

    The post-measurement data state for projector |v><v| is
    sum_ij v_j conj(v_i) b[i, j]; the complementary outcome is
    rho_data minus that, so one einsum per batch covers both branches.
    """
    v0 = np.cos(thetas / 2.0).astype(complex)
    v1 = np.sin(thetas / 2.0) * np.exp(1j * phis)
    coef = np.empty(thetas.shape + (2, 2), dtype=complex)
    for i, vi in enumerate((v0, v1)):
        for jj, vj in enumerate((v0, v1)):
            coef[..., i, jj] = vj * np.conj(vi)
    sig_plus = np.einsum("...ij,ijab->...ab", coef, blocks)
    sig_minus = rho_data - sig_plus
    out = np.zeros(thetas.shape)
    for sig in (sig_plus, sig_minus):
        lam = np.linalg.eigvalsh(sig)
        prob = lam.sum(axis=-1)
        lam = np.clip(lam, 0.0, None)
        norm = lam / np.maximum(prob, 1e-300)[..., None]
        ent = -(norm * np.log2(np.where(norm > 0, norm, 1.0))).sum(axis=-1)
        out += np.where(prob > 1e-15, prob * ent, 0.0)
    return out


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


def quantum_discord(
    rho: DensityMatrix,
    probe_index: int = 0,
    *,
    grid_shape: tuple[int, int] = (64, 128),
    angle_tol: float = 1e-6,
    improve_tol: float = 1e-9,
) -> DiscordResult:
    """Discord of `rho` with the measurement on the given probe qubit.

    Grid search over (theta, phi) on the Bloch sphere, then coordinate
    descent with golden-section line searches down to `angle_tol` per
    coordinate, stopping once a full sweep improves the conditional
    entropy by less than `improve_tol` bits.
    """
    blocks = _probe_blocks(rho, probe_index)
    rho_data = blocks[0, 0] + blocks[1, 1]
    s_probe = qstate.von_neumann_entropy(
        qstate.partial_trace(rho, keep={probe_index})
    )
    s_full = qstate.von_neumann_entropy(rho)

    nt, np_ = grid_shape
    if nt < 2 or np_ < 2:
        raise ValueError("grid must hold at least 2 points per axis")
    thetas = np.linspace(0.0, math.pi, nt)
    phis = np.linspace(0.0, 2.0 * math.pi, np_, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    values = _conditional_entropy_batch(tg.ravel(), pg.ravel(), blocks, rho_data)
    best = int(values.argmin())
    t_best = float(tg.ravel()[best])
    p_best = float(pg.ravel()[best])
    f_best = float(values[best])

    def objective(theta, phi):
        return float(
            _conditional_entropy_batch(
                np.array([theta]), np.array([phi]), blocks, rho_data
            )[0]
        )

    step_t = math.pi / (nt - 1)
    step_p = 2.0 * math.pi / np_
    evals = 0
    for _ in range(60):
        previous = f_best
        lo = max(0.0, t_best - step_t)
        hi = min(math.pi, t_best + step_t)
        t_new, f_t, used = _golden_min(
            lambda t: objective(t, p_best), lo, hi, angle_tol
        )
        evals += used
        if f_t < f_best:
            t_best, f_best = t_new, f_t
        p_new, f_p, used = _golden_min(
            lambda q: objective(t_best, q), p_best - step_p, p_best + step_p, angle_tol
        )
        evals += used
        if f_p < f_best:
            p_best, f_best = p_new % (2.0 * math.pi), f_p
        if previous - f_best < improve_tol:
            break

    discord = s_probe - s_full + f_best
    if discord < -1e-9:
        raise RuntimeError(f"discord came out {discord:.3e}; optimizer failed")
    return DiscordResult(
        discord=max(0.0, discord),
        measurement_theta=t_best,
        measurement_phi=p_best,
        iterations=evals,
    )


def _binary_entropy_array(x: np.ndarray) -> np.ndarray:
    """Elementwise H2, with x clipped into [0, 1]: arguments such as
    (1 - alpha cos)/2 at alpha = 1 can round a hair outside it."""
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    for t in (x, 1.0 - x):
        pos = t > 0.0
        out[pos] -= t[pos] * np.log2(t[pos])
    return out


def protocol_discord(block: StepBlock, alpha: float) -> DiscordResult:
    """Probe-side discord of the one-clean-qubit output state for `block`.

    In the eigenbasis of the block the state is a direct sum of probe
    blocks with Bloch vectors alpha (cos l_k, sin l_k), so with weights
    w_k on the eigenphases l_k and tau = tr(block)/2^n

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
    phases, weights = block.eigenphases()
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


def mutual_information(rho: DensityMatrix, probe_index: int = 0) -> float:
    """I = S(rho_probe) + S(rho_rest) - S(rho)."""
    k = rho.num_qubits
    rest = [q for q in range(k) if q != probe_index]
    return (
        qstate.von_neumann_entropy(qstate.partial_trace(rho, keep={probe_index}))
        + qstate.von_neumann_entropy(qstate.partial_trace(rho, keep=rest))
        - qstate.von_neumann_entropy(rho)
    )


def ppt_min_eigenvalue(rho: DensityMatrix, probe_index: int = 0) -> float:
    """Smallest eigenvalue of the partial transpose over the probe qubit.

    Nonnegative values mean the probe-register split passes the
    positive-partial-transpose entanglement test.
    """
    k = rho.num_qubits
    if not 0 <= probe_index < k:
        raise ValueError(f"probe index {probe_index} outside 0..{k - 1}")
    mat = _probe_front(rho.entries, probe_index, k)
    half = 2 ** (k - 1)
    swapped = mat.reshape(2, half, 2, half).transpose(2, 1, 0, 3)
    return float(np.linalg.eigvalsh(swapped.reshape(2 * half, 2 * half)).min())
