"""Gate and circuit-block constructors for the parity-learning protocol.

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
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .qstate import MAX_QUBITS, OperatorMatrix

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PROJ_0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def as_bits(s, n: int | None = None) -> np.ndarray:
    """Normalize a bit pattern ("0110", [0,1,1,0], ...) to a uint8 array."""
    if isinstance(s, str):
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"bit string {s!r} must be nonempty over {{0,1}}")
        bits = np.array([int(c) for c in s], dtype=np.uint8)
    else:
        bits = np.array(list(s), dtype=np.int64)
        if bits.ndim != 1 or bits.size == 0 or not np.isin(bits, (0, 1)).all():
            raise ValueError("bits must be a nonempty sequence over {0,1}")
        bits = bits.astype(np.uint8)
    if n is not None and bits.size != n:
        raise ValueError(f"expected {n} bits, got {bits.size}")
    return bits


def bits_to_str(bits) -> str:
    return "".join(str(int(b)) for b in np.asarray(bits).ravel())


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
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def embed(gate: np.ndarray, qubit: int, total: int) -> np.ndarray:
    """Single-qubit `gate` on `qubit` (0-based), identity elsewhere."""
    if not 0 <= qubit < total:
        raise ValueError(f"qubit {qubit} outside 0..{total - 1}")
    return kron_all([gate if k == qubit else ID2 for k in range(total)])


def cnot(control: int, target: int, total: int) -> np.ndarray:
    """Dense CNOT on a `total`-qubit register."""
    if control == target:
        raise ValueError("control and target coincide")
    return embed(PROJ_0, control, total) + embed(PROJ_1, control, total) @ embed(
        PAULI_X, target, total
    )


@dataclass(frozen=True)
class StepBlock:
    """One probe-step block on the data register, qubit by qubit.

    The block is the tensor product over data qubits k = 1..n of
    ``R(theta, phi)^rotated[k] . sx^flips[k]``: a rotation or the identity,
    times sx where a parity coupling is left after the decoupling
    corrections.  ``dense`` builds the matrix from the qubits in order.
    The normalized trace (``tau``), whether it is exactly zero
    (``vanishes``) and the spectrum (``eigenphases``) depend only on
    ``kinds``, how many qubits fall into each of the four kinds, so they
    do not depend on the order of the qubits.
    """

    theta: float
    rotated: tuple[bool, ...]
    flips: tuple[bool, ...]
    phi: float = 0.0

    @classmethod
    def from_bits(
        cls,
        bits: Sequence[int],
        theta: float,
        j: int | None = None,
        decoupled: Iterable[int] = (),
        corrections: Iterable[int] = (),
        phi: float = 0.0,
    ) -> "StepBlock":
        """Block for probing bit j of the coupling pattern `bits`.

        Qubit j and the decoupled qubits are left unrotated (``j=None``
        rotates every qubit that is not decoupled); qubit k is flipped
        when s_k xor (k in corrections) is 1, so a correction cancels the
        coupling of a learned 1 and a stray one leaves a bare sx.
        """
        n = len(bits)
        dec = frozenset(decoupled)
        corr = frozenset(corrections)
        if j is not None and not 1 <= j <= n:
            raise ValueError(f"probe index {j} outside 1..{n}")
        if dec and (min(dec) < 1 or max(dec) > n):
            raise ValueError("decoupled set outside data register")
        if not corr <= dec:
            raise ValueError("corrections must target decoupled qubits")
        if j in dec:
            raise ValueError(f"probe index {j} cannot be decoupled")
        # set by index rather than testing every qubit: the learner's oracle
        # rebuilds the block on every query
        rotated = [True] * n
        for k in dec:
            rotated[k - 1] = False
        if j is not None:
            rotated[j - 1] = False
        flips = list(map(bool, bits))
        for k in corr:
            flips[k - 1] = not flips[k - 1]
        return cls(theta=theta, rotated=tuple(rotated), flips=tuple(flips), phi=phi)

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n block; a factor times sx is that factor with its
        columns swapped.  Refuses n above ``qstate.MAX_QUBITS`` before
        allocating anything."""
        n = len(self.rotated)
        if n > MAX_QUBITS:
            raise ValueError(
                f"a dense block on {n} qubits exceeds the {MAX_QUBITS}-qubit "
                "limit; use the closed-form trace (--backend closed)"
            )
        gate = rx(self.theta, self.phi)
        factors = []
        for rotated, flipped in zip(self.rotated, self.flips):
            factor = gate if rotated else ID2
            factors.append(factor[:, ::-1] if flipped else factor)
        return kron_all(factors)

    @cached_property
    def kinds(self) -> tuple[int, int, int, int]:
        """Qubit counts of the four kinds, indexed by 2 rotated + flipped:
        identity, bare sx, R and R . sx."""
        n = len(self.rotated)
        rotated = sum(self.rotated)
        flipped = sum(self.flips)
        both = sum(compress(self.flips, self.rotated))
        return (n - rotated - flipped + both, flipped - both, rotated - both, both)

    def _traces(self) -> tuple[float, float]:
        """tr(R)/2 = cos(theta/2) and tr(R . sx)/2i = sin(theta/2) cos(phi)."""
        half = self.theta / 2.0
        return math.cos(half), math.sin(half) * math.cos(self.phi)

    def vanishes(self) -> bool:
        """Whether some factor of the trace is exactly 0.0: a bare sx, or a
        rotated kind whose trace is 0.0.  An underflow does not vanish."""
        _, bare, rotated, both = self.kinds
        c, a = self._traces()
        return bare > 0 or (rotated > 0 and c == 0.0) or (both > 0 and a == 0.0)

    def tau(self) -> complex:
        """tr(block)/2^n = c^r (i a)^m for r qubits R and m qubits R . sx,
        with c and a from ``_traces``: real powers times i^(m mod 4)."""
        if self.vanishes():
            return 0j
        _, _, rotated, both = self.kinds
        c, a = self._traces()
        mag = c**rotated * a**both
        return complex(*((mag, 0.0), (0.0, mag), (-mag, 0.0), (0.0, -mag))[both % 4])

    def eigenphases(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eigenphases of the block in [0, 2 pi), with weights.

        A weight is the fraction of the 2^n eigenvalues that carry the
        phase.  Each factor has an eigenphase pair (a, b): identity (0, 0),
        sx (0, pi), R (theta/2, -theta/2) and R . sx (mu, pi - mu) with
        sin mu = sin(theta/2) cos(phi).  A block phase takes one member
        per qubit, so only how many qubits of each kind take b matters:
        m of `count` do with weight comb(count, m) / 2^count, and the
        spectrum is a convolution over the four kinds in ``kinds`` order.
        """
        half = self.theta / 2.0
        _, a = self._traces()
        root = math.sqrt(max(0.0, 1.0 - a * a))
        pairs = (
            (0.0, 0.0), (0.0, math.pi), (half, -half),
            (math.atan2(a, root), math.atan2(a, -root)),
        )
        phases = np.zeros(1)
        weights = np.ones(1)
        for (first, second), count in zip(pairs, self.kinds):
            taken = np.arange(count + 1)
            kind_phases = (count - taken) * first + taken * second
            kind_weights = np.array(
                [math.comb(count, m) / 2**count for m in range(count + 1)]
            )
            summed = np.mod(np.add.outer(phases, kind_phases).ravel(), 2.0 * math.pi)
            # a tiny negative sum wraps to exactly 2 pi; wrap that to 0
            summed[summed == 2.0 * math.pi] = 0.0
            phases, slot = np.unique(summed, return_inverse=True)
            weights = np.bincount(
                slot, weights=np.multiply.outer(weights, kind_weights).ravel()
            )
        return phases, weights


def build_parity_unitary(s) -> OperatorMatrix:
    """Tensor product of sx on every data qubit with s_k = 1.

    Self-inverse, and traceless unless s is all zeros.
    """
    bits = as_bits(s)
    # every qubit decoupled and none corrected: no rotation, bare couplings
    block = StepBlock.from_bits(bits, 0.0, decoupled=range(1, bits.size + 1))
    return OperatorMatrix(block.dense(), unitary=True, validate=False)


def controlled(u: OperatorMatrix) -> OperatorMatrix:
    """Block-diagonal [1, u]: apply `u` to the data register when the probe
    (most significant qubit) is set."""
    if not u.unitary:
        res = np.abs(u.entries.conj().T @ u.entries - np.eye(u.dim)).max()
        if res > 1e-12:
            raise ValueError(f"controlled block is not unitary (residue {res:.3e})")
    dim = u.dim
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    out[:dim, :dim] = np.eye(dim)
    out[dim:, dim:] = u.entries
    return OperatorMatrix(out, unitary=True, validate=False)


def parity_step_block(s, theta: float, *, j: int | None = None, phi: float = 0.0) -> OperatorMatrix:
    """Data-register block rotation . parity pattern for one probe step.

    With `j` given the rotation skips data qubit j (the discrimination
    step); with ``j=None`` the rotation is uniform.
    """
    block = StepBlock.from_bits(as_bits(s), theta, j, phi=phi)
    return OperatorMatrix(block.dense(), unitary=True, validate=False)


def error_identity_check() -> float:
    """Check the phase-error propagation identity on two qubits.

    A sz after the controlled-x block (probe controls, data qubit is the
    target) equals the same circuit preceded by sx on the probe and sz on
    the data qubit, once the probe Hadamard is accounted for:

        (1 x sz) . CNOT . (H x 1) = CNOT . (H x 1) . (sx x sz)

    Returns the largest entrywise deviation between the two sides.
    """
    cx = cnot(0, 1, 2)
    lhs = embed(PAULI_Z, 1, 2) @ cx @ embed(HADAMARD, 0, 2)
    rhs = cx @ embed(HADAMARD, 0, 2) @ np.kron(PAULI_X, PAULI_Z)
    return float(np.abs(lhs - rhs).max())
