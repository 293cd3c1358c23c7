"""Gates and the probe-step block (``StepBlock``) of the parity-learning
protocol.  The full-register builders of the dense reference (``embed``,
``controlled`` and the rest) are in ``qstate``.

Layout: qubit 0 is the probe (control) qubit, data qubits are numbered
1..n and double as absolute qubit indices in the (n+1)-qubit register.
Bit j of a hidden string addresses data qubit j.

The x rotation follows the positive-phase convention
``R_x(t) = exp(+i t sx / 2)``, so ``tr(R_x(t) sx) = 2 i sin(t/2)`` and the
uniform-rotation trace over a parity pattern with m ones is
``2^n (i sin(t/2))^m (cos(t/2))^(n-m)``.  A tilted rotation axis replaces
sx by ``cos(phi) sx + sin(phi) sy``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Sequence

import numpy as np

#: Largest qubit count of a dense matrix (``StepBlock.dense``, ``qstate``);
#: past it a dense matrix stops fitting in desk-scale memory.
MAX_QUBITS = 12

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PROJ_0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def as_bits(s, n: int | None = None) -> np.ndarray:
    """Normalize a bit pattern ("0110", [0,1,1,0], ...) to a new uint8 array."""
    if isinstance(s, str):
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"bit string {s!r} must be nonempty over {{0,1}}")
        bits = np.frombuffer(s.encode("ascii"), np.uint8) - 48
    else:
        bits = np.array(s if isinstance(s, np.ndarray) else list(s), dtype=np.int64)
        # v >> 1 is 0 only for v in {0, 1}; negatives shift to -1 or below
        if bits.ndim != 1 or bits.size == 0 or (bits >> 1).any():
            raise ValueError("bits must be a nonempty sequence over {0,1}")
        bits = bits.astype(np.uint8)
    if n is not None and bits.size != n:
        raise ValueError(f"expected {n} bits, got {bits.size}")
    return bits


def bits_to_str(bits) -> str:
    """A 0/1 pattern (ints or bools, any shape, read in C order) as a string."""
    return (np.asarray(bits, dtype=np.uint8).ravel() + 48).tobytes().decode("ascii")


def weight(bits) -> int:
    """Hamming weight."""
    return int(as_bits(bits).sum())


def require_normal(value: complex, what: str) -> complex:
    """Return `value`, nonzero in exact arithmetic, unless its magnitude came
    out below 2^-1022, the smallest normal float: subnormal or 0, it lost
    its digits."""
    if abs(value) < sys.float_info.min:
        raise ValueError(f"{what} is below 2^-1022, the smallest normal float")
    return value


def rx(theta: float, phi: float = 0.0) -> np.ndarray:
    """2x2 rotation exp(+i theta/2 (cos phi sx + sin phi sy))."""
    c = np.cos(theta / 2.0)
    s = 1j * np.sin(theta / 2.0)
    return np.array(
        [[c, s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex
    )


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Left-associated Kronecker product of 2x2 factors, starting from
    [[1+0j]].  Each step writes out * f[r, c] into the (r, c) slots of a
    preallocated (m, 2, m, 2) array, the same products as ``np.kron`` (so
    the same bits, signed zeros included) without its strided copies."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        m = out.shape[0]
        res = np.empty((m, 2, m, 2), dtype=np.result_type(out, f))
        for r in range(2):
            for c in range(2):
                np.multiply(out, f[r, c], out=res[:, r, :, c])
        out = res.reshape(2 * m, 2 * m)
    return out


def ones_mask(bits: Sequence[int]) -> int:
    """The 1s of a bit pattern as an int bitmask: bit k-1 is set when s_k = 1."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def mask_kinds(n: int, rotated: int, flips: int) -> tuple[int, int, int, int]:
    """Qubit counts of the four kinds, indexed by 2 rotated + flipped (identity,
    bare sx, R and R . sx), from three popcounts of n qubits' bitmasks."""
    r, f, both = rotated.bit_count(), flips.bit_count(), (rotated & flips).bit_count()
    return (n - r - f + both, f - both, r - both, both)


@dataclass(frozen=True)
class StepBlock:
    """One probe-step block on the data register, qubit by qubit.

    The block is the tensor product over data qubits k = 1..n of
    ``R(theta, phi)^rotated_k . sx^flips_k``: a rotation or the identity,
    times sx where a parity coupling is left after the decoupling
    corrections.  `rotated` and `flips` are int bitmasks, bit k-1 for
    qubit k, and a bit at or past n, or a negative mask, is refused.
    ``dense`` builds the matrix from the qubits in order.  The normalized
    trace (``tau``), whether it is exactly zero (``vanishes``) and the
    spectrum that ``infomeasures.protocol_discord`` reads depend only on
    ``kinds``, how many qubits fall into each of the four kinds, so they
    do not depend on the order of the qubits.
    """

    theta: float
    n: int
    rotated: int
    flips: int
    phi: float = 0.0

    def __post_init__(self) -> None:
        # a negative mask shifts to -1, so it is refused too
        if (self.rotated | self.flips) >> self.n:
            raise ValueError(f"rotated or flipped qubits outside 1..{self.n}")

    @classmethod
    def from_bits(
        cls,
        bits: Sequence[int],
        theta: float,
        j: int | None = None,
        decoupled: int = 0,
        corrections: int = 0,
        phi: float = 0.0,
    ) -> "StepBlock":
        """Block for probing bit j of the coupling pattern `bits`.

        Qubit j and the `decoupled` qubits are left unrotated (``j=None``
        rotates every qubit that is not decoupled); qubit k is flipped
        when s_k xor (k in corrections) is 1, so a correction cancels the
        coupling of a learned 1 and a stray one leaves a bare sx.
        """
        n = len(bits)
        if j is not None and not 1 <= j <= n:
            raise ValueError(f"probe index {j} outside 1..{n}")
        # a negative mask shifts to -1, or meets ~decoupled, so it is refused
        if decoupled >> n:
            raise ValueError("decoupled set outside data register")
        if corrections & ~decoupled:
            raise ValueError("corrections must target decoupled qubits")
        probe = 0 if j is None else 1 << (index(j) - 1)
        if probe & decoupled:
            raise ValueError(f"probe index {j} cannot be decoupled")
        rotated = ((1 << n) - 1) & ~(decoupled | probe)
        return cls(theta, n, rotated, ones_mask(bits) ^ corrections, phi)

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n block; a factor times sx is that factor with its
        columns swapped.  Refuses n above ``MAX_QUBITS`` before
        allocating anything."""
        if self.n > MAX_QUBITS:
            raise ValueError(
                f"a dense block on {self.n} qubits exceeds the {MAX_QUBITS}-qubit "
                "limit; use the closed-form trace (--backend closed)"
            )
        gate = rx(self.theta, self.phi)
        factors = []
        for k in range(self.n):
            factor = gate if self.rotated >> k & 1 else ID2
            factors.append(factor[:, ::-1] if self.flips >> k & 1 else factor)
        return kron_all(factors)

    @cached_property
    def kinds(self) -> tuple[int, int, int, int]:
        """Qubit counts of the four kinds (``mask_kinds``)."""
        return mask_kinds(self.n, self.rotated, self.flips)

    def vanishes(self) -> bool:
        """Whether the trace is exactly zero (``kinds_vanish``)."""
        return kinds_vanish(self.theta, self.phi, self.kinds)

    def tau(self) -> complex:
        """tr(block)/2^n from the kind counts (``kinds_tau``)."""
        return kinds_tau(self.theta, self.phi, self.kinds)


def _traces(theta: float, phi: float) -> tuple[float, float]:
    """tr(R)/2 = cos(theta/2) and tr(R . sx)/2i = sin(theta/2) cos(phi)."""
    half = theta / 2.0
    return math.cos(half), math.sin(half) * math.cos(phi)


def kinds_vanish(theta: float, phi: float, kinds: Sequence[int]) -> bool:
    """Whether some factor of a block's trace is exactly 0.0, for the
    kind counts of ``StepBlock.kinds``: a bare sx, or a rotated kind whose
    trace is 0.0.  An underflow does not vanish."""
    _, bare, rotated, both = kinds
    c, a = _traces(theta, phi)
    return bare > 0 or (rotated > 0 and c == 0.0) or (both > 0 and a == 0.0)


def kinds_tau(theta: float, phi: float, kinds: Sequence[int]) -> complex:
    """tr(block)/2^n = c^r (i a)^m for the kind counts of ``StepBlock.kinds``,
    with r qubits R, m qubits R . sx and c, a from ``_traces``: real powers
    times i^(m mod 4)."""
    if kinds_vanish(theta, phi, kinds):
        return 0j
    _, _, rotated, both = kinds
    c, a = _traces(theta, phi)
    mag = c**rotated * a**both
    return complex(*((mag, 0.0), (0.0, mag), (-mag, 0.0), (0.0, -mag))[both % 4])


def normal_tau(theta: float, phi: float, kinds: Sequence[int]) -> complex:
    """``kinds_tau``, but a trace that is not exactly zero and fell below
    2^-1022 raises ValueError (``require_normal``)."""
    tau = kinds_tau(theta, phi, kinds)
    return tau if kinds_vanish(theta, phi, kinds) else require_normal(tau, "the trace")
