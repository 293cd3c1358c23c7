import math

import numpy as np
import pytest

from dqc1lpn import infomeasures
from dqc1lpn.circuits import StepBlock, angle_traces, as_bits
from dqc1lpn.dqc1 import Dqc1Config

import dense_reference as qstate
from dense_reference import HADAMARD, DensityMatrix, OperatorMatrix, embed


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, num_qubits):
    dim = 2**num_qubits
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = z @ z.conj().T
    return mat / np.trace(mat).real


def reference_tau(bits, theta, rotated):
    """Normalized trace of the rotate-then-flip block, built qubit by qubit.

    Deliberately avoids the package's circuit builders: per-qubit 2x2
    factors are assembled with raw numpy and multiplied into a full
    kron product before tracing.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    c, s = np.cos(theta / 2.0), 1j * np.sin(theta / 2.0)
    rot = np.array([[c, s], [s, c]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    total = np.array([[1.0 + 0j]])
    for k in range(1, n + 1):
        factor = rot if k in rotated else eye
        if bits[k - 1]:
            factor = factor @ flip
        total = np.kron(total, factor)
    return complex(np.trace(total)) / 2**n


def all_bitstrings(n):
    for value in range(2**n):
        yield np.array([(value >> (n - 1 - k)) & 1 for k in range(n)], dtype=np.uint8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def qubit_mask(qubits):
    """The int bitmask of a set of data qubits 1..n: bit k-1 for qubit k."""
    return sum(1 << (int(k) - 1) for k in set(qubits))


def step_blocks(theta, phi):
    """Every distinct StepBlock for n <= 4: all strings, every probe index,
    decoupled prefixes with the learner's corrections, none, all of them
    and the stray ones alone, plus the bare coupling pattern that
    build_parity_unitary builds (every qubit decoupled, none rotated)."""
    seen = set()
    for n in (1, 2, 3, 4):
        for bits in all_bitstrings(n):
            bits = bits.tolist()
            yield StepBlock.from_bits(bits, 0.0, decoupled=(1 << n) - 1)
            for j in range(1, n + 1):
                decoupled = (1 << (j - 1)) - 1
                correct = qubit_mask(k for k in range(1, j) if bits[k - 1])
                stray = decoupled ^ correct
                for corrections in (correct, 0, decoupled, stray):
                    block = StepBlock.from_bits(
                        bits, theta, j, decoupled, corrections, phi=phi
                    )
                    if block not in seen:
                        seen.add(block)
                        yield block


#: Eigenphases (rad) closer than this are one phase that rounding split.
PHASE_MERGE = 1e-12


def reference_eigenphases(block):
    """Distinct eigenphases of the block in [0, 2 pi), with weights.

    A weight is the fraction of the 2^n eigenvalues that carry the
    phase.  Each factor has an eigenphase pair (a, b): identity (0, 0),
    sx (0, pi), R (theta/2, -theta/2) and R . sx (mu, pi - mu) with
    sin mu = sin(theta/2) cos(phi).  A block phase takes one member
    per qubit, so only how many qubits of each kind take b matters:
    m of `count` do with weight comb(count, m) / 2^count, and the
    spectrum is a convolution over the four kinds in ``kinds`` order.
    Phases closer than ``PHASE_MERGE`` merge into the smallest of them.
    """
    half = block.theta / 2.0
    a = angle_traces(block.theta, block.phi).a
    root = math.sqrt(max(0.0, 1.0 - a * a))
    pairs = (
        (0.0, 0.0), (0.0, math.pi), (half, -half),
        (math.atan2(a, root), math.atan2(a, -root)),
    )
    phases = np.zeros(1)
    weights = np.ones(1)
    for (first, second), count in zip(pairs, block.kinds):
        taken = np.arange(count + 1)
        kind_phases = (count - taken) * first + taken * second
        kind_weights = np.array(
            [math.comb(count, m) / 2**count for m in range(count + 1)]
        )
        summed = np.mod(np.add.outer(phases, kind_phases).ravel(), 2.0 * math.pi)
        # a tiny negative sum wraps to about 2 pi; fold that into 0
        summed[summed > 2.0 * math.pi - PHASE_MERGE] = 0.0
        order = np.argsort(summed, kind="stable")
        summed = summed[order]
        starts = np.flatnonzero(np.diff(summed, prepend=-1.0) >= PHASE_MERGE)
        phases = summed[starts]
        weights = np.add.reduceat(
            np.multiply.outer(weights, kind_weights).ravel()[order], starts
        )
    return phases, weights


def reference_binary_entropy_array(x):
    """``infomeasures._binary_entropy_array`` before it went branch-free,
    kept verbatim: log2 only where an argument is positive."""
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    for t in (x, 1.0 - x):
        pos = t > 0.0
        out[pos] -= t[pos] * np.log2(t[pos])
    return out


def reference_discord_objective(phases, weights, tau, alpha):
    """The objective of ``infomeasures.protocol_discord`` before it read
    precomputed quadratures, kept verbatim: cos(phi - l_k) over an outer
    difference of every probe angle and every phase."""

    def objective(phi: np.ndarray) -> np.ndarray:
        spread = reference_binary_entropy_array(
            (1.0 - alpha * np.cos(np.subtract.outer(phi, phases))) / 2.0
        )
        readout = (tau.real * np.cos(phi) + tau.imag * np.sin(phi)) * alpha
        return spread @ weights - reference_binary_entropy_array((1.0 - readout) / 2.0)

    return objective


def reference_protocol_discord(block, alpha):
    """(discord, iterations) of ``protocol_discord`` with the reference
    objective: the same nested grids over [0, pi/2]."""
    phases, weights = infomeasures._spectrum(block)
    tau = block.tau()
    objective = reference_discord_objective(phases, weights, tau, alpha)
    _, f_best, evals = infomeasures._nested_grid_min(objective)
    s_probe, s_block = reference_binary_entropy_array(
        np.array([(1.0 - alpha * abs(tau)) / 2.0, (1.0 - alpha) / 2.0])
    )
    return max(0.0, float(s_probe - s_block) + f_best), evals


def reference_as_bits(s, n=None):
    """``circuits.as_bits`` before it converted in bulk, kept verbatim as the
    reference (a Python int per character, ``list`` plus ``np.isin``) but
    for its refusals of a string, which name the first non-bit character."""
    if isinstance(s, str):
        if not s:
            raise ValueError("bit string is empty")
        bad = next((k for k, c in enumerate(s) if c not in "01"), None)
        if bad is not None:
            raise ValueError(f"bit string has {s[bad]!r} at position {bad + 1}, not a 0 or 1")
        bits = np.array([int(c) for c in s], dtype=np.uint8)
    else:
        bits = np.array(list(s), dtype=np.int64)
        if bits.ndim != 1 or bits.size == 0 or not np.isin(bits, (0, 1)).all():
            raise ValueError("bits must be a nonempty sequence over {0,1}")
        bits = bits.astype(np.uint8)
    if n is not None and bits.size != n:
        raise ValueError(f"expected {n} bits, got {bits.size}")
    return bits


def reference_bits_to_str(bits):
    """``circuits.bits_to_str`` before its bulk conversion, kept verbatim."""
    return "".join(str(int(b)) for b in np.asarray(bits).ravel())


def reference_ones_mask(bits):
    """``circuits.ones_mask`` before it packed bits, kept verbatim."""
    return int(reference_bits_to_str(bits)[::-1] or "0", 2)


def dense_final_state(
    s, cfg: Dqc1Config, *, j: int | None, between: "callable"
) -> DensityMatrix:
    """Dense run of one probe step, with a corruption `between` applied
    between the parity couplings and the controlled rotation.

    The two halves are step blocks of their own: the couplings of s with
    nothing rotated, then the rotation of an all-zero pattern.
    """
    bits = as_bits(s, n=cfg.n)
    total = cfg.n + 1
    rotation = qstate.block_operator(StepBlock.from_bits([0] * cfg.n, cfg.theta, j))
    rho = qstate.initial_state(cfg)
    had = OperatorMatrix(embed(HADAMARD, 0, total), unitary=True, validate=False)
    rho = qstate.apply_unitary(rho, had)
    rho = qstate.apply_unitary(
        rho, qstate.controlled(qstate.build_parity_unitary(bits))
    )
    rho = between(rho)
    return qstate.apply_unitary(rho, qstate.controlled(rotation))
