import numpy as np
import pytest

from dqc1lpn import qstate
from dqc1lpn.circuits import HADAMARD, StepBlock, as_bits
from dqc1lpn.dqc1 import Dqc1Config
from dqc1lpn.qstate import DensityMatrix, OperatorMatrix, embed


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
    rotation = qstate.parity_step_block([0] * cfg.n, cfg.theta, j=j)
    rho = qstate.initial_state(cfg)
    had = OperatorMatrix(embed(HADAMARD, 0, total), unitary=True, validate=False)
    rho = qstate.apply_unitary(rho, had)
    rho = qstate.apply_unitary(
        rho, qstate.controlled(qstate.build_parity_unitary(bits))
    )
    rho = between(rho)
    return qstate.apply_unitary(rho, qstate.controlled(rotation))
