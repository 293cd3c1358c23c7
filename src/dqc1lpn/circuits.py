"""The probe-step block (``StepBlock``) of the parity-learning protocol,
described qubit by qubit, with its closed-form trace.  No dense matrix is
built here: the dense reference of the tests, ``tests/dense_reference.py``,
builds the block's matrix from its 2x2 factors (``StepBlock.factors``).

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
from typing import NamedTuple, Sequence

import numpy as np

from .dqc1 import require_int, require_real

#: Largest qubit count of a dense matrix (``StepBlock.factors`` and
#: ``tests/dense_reference.py``);
#: past it a dense matrix stops fitting in desk-scale memory.
MAX_QUBITS = 12

ID2 = np.eye(2, dtype=complex)


def as_bits(s, n: int | None = None) -> np.ndarray:
    """The one reader of a bit pattern ("0110", [0, 1, 1, 0], ...), as a new
    uint8 array; a value not 0 or 1 (2, 0.5, -1, "a", None), a bare number,
    or an empty, nested or not `n` long pattern raises ValueError."""
    if isinstance(s, str):
        if not s:
            raise ValueError("bit string is empty")
        if set(s) - {"0", "1"}:
            # name the first character that is not a bit, not the whole string
            k = len(s) - len(s.lstrip("01"))
            raise ValueError(f"bit string has {s[k]!r} at position {k + 1}, not a 0 or 1")
        bits = np.frombuffer(s.encode("ascii"), np.uint8) - 48
    else:
        try:
            bits = np.asarray(s if isinstance(s, np.ndarray) else list(s))
            # compare values, with no cast that would wrap -1 or truncate 0.5
            ones = bits == 1
            read = bits.ndim == 1 and bits.size and (ones | (bits == 0)).all()
        except (TypeError, ValueError):  # not iterable, or ragged
            read = False
        if not read:
            raise ValueError("bits must be a nonempty sequence over {0,1}")
        bits = ones.view(np.uint8)
    if n is not None and bits.size != n:
        raise ValueError(f"expected {n} bits, got {bits.size}")
    return bits


def bits_to_str(bits) -> str:
    """A bit pattern of any shape, read in C order by ``as_bits``, as a
    string; a str is refused, since it is text already."""
    return (as_bits(np.ravel(bits)) + 48).tobytes().decode("ascii")


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


def ones_mask(bits) -> int:
    """The 1s of a bit pattern, read by ``as_bits``, as an int bitmask: bit
    k-1 is set when s_k = 1."""
    return _packed(as_bits(bits))


def probe_mask(j, n: int) -> int:
    """The bitmask of probe qubit j of n data qubits, or 0 for j=None (no
    probe); a j that is not an integer in 1..n raises ValueError."""
    if j is None:
        return 0
    j = require_int(j, "j")
    if not 1 <= j <= n:
        raise ValueError(f"probe index outside 1..{n}")
    return 1 << (j - 1)


def _packed(bits: np.ndarray) -> int:
    """The int bitmask of the uint8 0/1 array that ``as_bits`` returned."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


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
    qubit k; a negative n, a count or mask that is not an integer, a bit at
    or past n, a negative mask, or a theta or phi that is not a finite real
    number raises ValueError.  The trace (``tau``, ``vanishes``) and the
    spectrum that ``infomeasures.protocol_discord`` reads depend only on
    ``kinds``, the qubit counts of the four kinds, not on the qubit order.
    """

    theta: float
    n: int
    rotated: int
    flips: int
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta, phi = require_real(self.theta, "theta"), require_real(self.phi, "phi")
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"angles theta {self.theta} and phi {self.phi} must be finite")
        if require_int(self.n, "n") < 0:
            raise ValueError("n must be nonnegative")
        rotated, flips = require_int(self.rotated, "rotated"), require_int(self.flips, "flips")
        # a negative mask shifts to -1, so it is refused too
        if (rotated | flips) >> self.n:
            raise ValueError(f"rotated or flipped qubits outside 1..{self.n}")

    @classmethod
    def from_bits(
        cls,
        bits,
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
        bits = as_bits(bits)
        n = bits.size
        probe = probe_mask(j, n)
        decoupled = require_int(decoupled, "decoupled")
        corrections = require_int(corrections, "corrections")
        # a negative mask shifts to -1, or meets ~decoupled, so it is refused
        if decoupled >> n:
            raise ValueError("decoupled set outside data register")
        if corrections & ~decoupled:
            raise ValueError("corrections must target decoupled qubits")
        if probe & decoupled:
            raise ValueError(f"probe index {probe.bit_length()} cannot be decoupled")
        rotated = ((1 << n) - 1) & ~(decoupled | probe)
        return cls(theta, n, rotated, _packed(bits) ^ corrections, phi)

    def factors(self) -> list[np.ndarray]:
        """The 2x2 factors of qubits 1..n in order, a factor times sx with its
        columns swapped, which the dense backend's ``dense_trace`` and the
        tests' ``tests/dense_reference.py`` read; refused past ``MAX_QUBITS``
        before any allocation."""
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
        return factors

    def dense_trace(self) -> np.complex128:
        """The trace of the dense block from its 2^n diagonal entries, without
        the 4^n matrix: each is the product of factor diagonals that
        ``kron_all`` of ``tests/dense_reference.py`` writes there, summed in
        the same order, so the trace has the same bits."""
        diag = np.ones(1, dtype=complex)
        for f in self.factors():
            diag = np.multiply.outer(diag, np.diagonal(f)).ravel()
        return diag.sum()

    @cached_property
    def kinds(self) -> tuple[int, int, int, int]:
        """Qubit counts of the four kinds (``mask_kinds``)."""
        return mask_kinds(self.n, self.rotated, self.flips)

    def vanishes(self) -> bool:
        """Whether the trace is exactly zero (``kinds_vanish``)."""
        return kinds_vanish(angle_traces(self.theta, self.phi), self.kinds)

    def tau(self) -> complex:
        """tr(block)/2^n from the kind counts (``kinds_tau``)."""
        return kinds_tau(angle_traces(self.theta, self.phi), self.kinds)


class AngleTraces(NamedTuple):
    """The per-angle constants of the kind formulas: the factor traces
    c = tr(R)/2 = cos(theta/2) and a = tr(R . sx)/2i = sin(theta/2) cos(phi),
    and whether a has a factor that is exactly 0.0.  Only sin(theta/2) can
    be: ``math.cos`` of a finite double is never 0.0, so c and cos(phi)
    are not, and a product that underflows to 0.0 does not vanish."""

    c: float
    a: float
    a_zero: bool


def angle_traces(theta: float, phi: float) -> AngleTraces:
    """``AngleTraces`` of the rotation R(theta, phi), computed once per angle
    and read by ``kinds_vanish`` and ``kinds_tau`` for any kind counts."""
    half = theta / 2.0
    sin_half = math.sin(half)
    return AngleTraces(math.cos(half), sin_half * math.cos(phi), sin_half == 0.0)


def kinds_vanish(traces: AngleTraces, kinds: Sequence[int]) -> bool:
    """Whether some factor of a block's trace is exactly 0.0, for the
    kind counts of ``StepBlock.kinds``: a bare sx, or an R . sx qubit when
    ``traces.a_zero``."""
    _, bare, _, both = kinds
    return bare > 0 or (both > 0 and traces.a_zero)


def kinds_tau(traces: AngleTraces, kinds: Sequence[int]) -> complex:
    """tr(block)/2^n = c^r (i a)^m for the kind counts of ``StepBlock.kinds``,
    with r qubits R, m qubits R . sx and c, a from `traces`: real powers
    times i^(m mod 4)."""
    if kinds_vanish(traces, kinds):
        return 0j
    _, _, rotated, both = kinds
    mag = traces.c**rotated * traces.a**both
    return complex(*((mag, 0.0), (0.0, mag), (-mag, 0.0), (0.0, -mag))[both % 4])


def normal_tau(traces: AngleTraces, kinds: Sequence[int]) -> complex:
    """``kinds_tau``, but a trace that is not exactly zero and fell below
    2^-1022 raises ValueError (``require_normal``)."""
    tau = kinds_tau(traces, kinds)
    return tau if kinds_vanish(traces, kinds) else require_normal(tau, "the trace")
