"""Bitwise learner for a hidden parity string read out through one probe qubit.

The hidden string s enters the register as a pattern of controlled-x
couplings.  Probing bit j applies a controlled rotation to the data
qubits after j and reads the probe: the normalized trace factorizes per
qubit, so the reading is zero exactly when s_j = 1 and has magnitude
|Delta tau_j|, the trace with s_j cleared, otherwise.  Bits already
processed are decoupled (a controlled-x correction cancels the coupling
of every learned 1), which grows the discrimination gap by sqrt(2) per
step at theta = pi/2:

    |Delta tau_j| = (1/sqrt(2))^(n-j).

Probing bit j always decouples data qubits 1..j-1, so a query names only
j and the corrections, an int bitmask whose bit k-1 marks qubit k (the
qubit-set format of ``circuits.StepBlock``).  The block then rotates the
qubits after j and flips the 1s of s xor the corrections; the closed and
sampled oracles read its four kind counts from these two masks
(``circuits.mask_kinds``), so a query takes a fixed number of Python
steps.  What does not change from bit to bit is computed once per run: an
oracle holds the register mask and the factor traces of its angle
(``circuits.angle_traces``), and ``learn`` the threshold's base
alpha (1-p) and the gap factor min(|sin(theta/2)|, |cos(theta/2)|).
Oracles close over s; the learner only ever sees the query callable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import index
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import dqc1
from .circuits import (
    StepBlock, angle_traces, as_bits, kinds_tau, mask_kinds, normal_tau, ones_mask,
    require_normal,
)
from .dqc1 import Dqc1Config, EstimateRecord, require_int, require_real

#: Hoeffding-style constant in the query budget.
HOEFFDING_C = 2.0

#: The quadratures an oracle reads, and the integer parameters of a query.
_OBSERVABLES = frozenset(("x", "y"))
_QUERY_COUNTS = ("j", "corrections", "ensemble", "queries")

#: Type of a protocol query: (j, corrections, ensemble, queries, observables)
#: -> EstimateRecord, with data qubits 1..j-1 decoupled and `corrections` an
#: int bitmask of the corrected ones among them (bit k-1 for qubit k).
Oracle = Callable[..., EstimateRecord]


class BudgetExhaustedError(RuntimeError):
    """Raised when one bit would need more queries than the caller allows."""

    def __init__(self, j: int, required: int, allowed: int):
        super().__init__(
            f"bit {j} needs {_count_text(required)} queries, "
            f"budget allows {_count_text(allowed)}"
        )
        self.j = j
        self.required = required
        self.allowed = allowed


def _count_text(count: int) -> str:
    """A query count, written as a power of two once it passes 10^12."""
    if count <= 10**12:
        return str(count)
    if count & (count - 1) == 0:
        return f"2^{count.bit_length() - 1}"
    return f"about 2^{math.log2(count):.1f}"


@dataclass(frozen=True)
class BudgetParams:
    """Shot-budget planning parameters.

    delta is the failure probability; by default it is split globally
    (delta/n per bit), set per_bit_delta to spend delta on every bit.
    L is the shot count of one query.  The per-bit accuracy is the
    threshold that ``learn`` compares the bit's reading with.
    """

    delta: float
    L: int
    per_bit_delta: bool = False

    def __post_init__(self):
        if not 0.0 < require_real(self.delta, "delta") < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if require_int(self.L, "L") < 1:
            raise ValueError("L must be positive")


class LearnStep(NamedTuple):
    """One probed bit, an immutable named tuple: the estimate it saw and the
    decision it produced."""

    j: int
    record: EstimateRecord
    queries: int
    threshold: float
    bit: int


@dataclass(frozen=True)
class LearnResult:
    s_hat: np.ndarray
    steps: tuple[LearnStep, ...]


def closed_form_tau(s, theta: float, j: int, decoupled: Iterable[int] = ()) -> complex:
    """Normalized trace for probing bit j with the given qubits decoupled
    and their 1s corrected (``StepBlock.tau``); a trace that is not exactly
    zero but falls below 2^-1022 raises ValueError."""
    bits = as_bits(s)
    dec = 0
    for k in decoupled:
        # range-checked before the shift, which for a huge k would build a huge int
        k = require_int(k, "every qubit of decoupled")
        if not 1 <= k <= bits.size:
            raise ValueError(f"decoupled qubits outside 1..{bits.size}")
        dec |= 1 << (k - 1)
    block = StepBlock.from_bits(bits, theta, j, dec, ones_mask(bits) & dec)
    return normal_tau(angle_traces(theta, 0.0), block.kinds)


def decide_bit(est: EstimateRecord, threshold: float) -> int:
    """Midpoint rule: report 1 when |ex| + |ey| falls below the threshold."""
    # NaN fails both bounds
    if not 0.0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    return 1 if abs(est.ex) + abs(est.ey) < threshold else 0


def query_budget(budget: BudgetParams, n: int, threshold: float) -> int:
    """Queries required to decide one of n bits against `threshold`, the T
    that ``learn`` compares the bit's reading with.

    ceil(C ln(1/delta') / (L T^2)) with delta' the per-bit share of the
    failure budget.  ``learn``'s T_j = alpha (1-p) g^(n-j) / 2, with g the
    gap factor of theta (1/sqrt(2) at pi/2), so the count grows by 1/g^2
    per extra data qubit ahead of j and diverges as p -> 1.  A T that is
    not a positive normal float is refused, and so is n below 1.
    """
    # 0, a subnormal, a negative T, NaN and inf all fail this test
    if not 2.0**-1022 <= require_real(threshold, "threshold") < math.inf:
        raise ValueError("threshold must be a finite float of at least 2^-1022")
    if require_int(n, "n") < 1:
        raise ValueError("nothing to budget for n < 1")
    try:
        delta_eff = budget.delta if budget.per_bit_delta else budget.delta / n
    except OverflowError:  # n past float range: its log is taken below
        delta_eff = 0.0
    if delta_eff and 1.0 / delta_eff < math.inf:
        log_term = HOEFFDING_C * math.log(1.0 / delta_eff)
    else:  # delta/n underflowed to 0, or 1/delta' overflows: add the logs
        spread = 0.0 if budget.per_bit_delta else math.log(n)
        log_term = HOEFFDING_C * (spread - math.log(budget.delta))
    # L first, then T one factor at a time: no square underflows, and for
    # T <= 1 the quotient overflows only when the budget does; then, or when
    # float(L) overflows, the logs of the factors are summed instead
    try:
        raw = log_term / budget.L / threshold / threshold
    except OverflowError:
        raw = math.inf
    if not math.isfinite(raw):
        exponent = math.log2(log_term) - math.log2(budget.L) - 2.0 * math.log2(threshold)
        return 1 << max(0, math.ceil(exponent))
    return max(1, math.ceil(raw))


def make_oracle(s, cfg: Dqc1Config) -> Oracle:
    """Build a protocol query function that closes over the hidden string.

    A query probes bit j with qubits 1..j-1 decoupled and the qubits in
    the int bitmask `corrections` (bit k-1 for qubit k, all below j)
    corrected; every backend first refuses, with ValueError naming the
    parameter, a j, mask, ensemble or query count that is not an integer,
    a j outside 1..n, a mask that is negative or sets a bit at or after j,
    an ensemble or query count below 1, and observables other than "x"
    and "y".  cfg.backend "dense" sums the diagonal of the block's
    matrix qubit by qubit (``StepBlock.dense_trace``, up to ``MAX_QUBITS``),
    "closed" evaluates the trace from the block's kind counts, "sampled"
    adds shot noise to the closed-form values with one RNG stream per
    probed bit (derived from cfg.seed).
    """
    n = cfg.n
    ones = ones_mask(as_bits(s, n=n))
    backend = cfg.backend
    # per-run constants: every query rotates a suffix of these n qubits, at one angle
    register = (1 << n) - 1
    traces = angle_traces(cfg.theta, 0.0)

    def oracle(
        j: int,
        corrections: int = 0,
        ensemble: int = 1,
        queries: int = 1,
        observables: tuple[str, ...] = ("x", "y"),
    ) -> EstimateRecord:
        # one try on the common path; a refusal looks for the parameter to
        # name, and if every count is an integer, observables raised
        try:
            j = index(j)
            corrections = index(corrections)
            ensemble = index(ensemble)
            queries = index(queries)
            known = _OBSERVABLES.issuperset(observables)
        except TypeError:
            for value, what in zip((j, corrections, ensemble, queries), _QUERY_COUNTS):
                require_int(value, what)
            known = False
        if not 1 <= j <= n:
            raise ValueError(f"probe index outside 1..{n}")
        # a negative mask shifts to -1, so this refuses it as well
        if corrections >> (j - 1):
            raise ValueError(f"corrections must target decoupled qubits 1..{j - 1}")
        if ensemble < 1 or queries < 1:
            raise ValueError("ensemble and queries must be at least 1")
        if not known:
            raise ValueError('observables must be a collection of "x" and "y"')
        rotated = register >> j << j
        flips = ones ^ corrections
        if backend == "dense":
            tau = StepBlock(cfg.theta, n, rotated, flips).dense_trace() / 2**n
        else:
            tau = kinds_tau(traces, mask_kinds(n, rotated, flips))
        ex, ey = dqc1.expectations_from_tau(cfg.alpha, cfg.p, tau)
        if backend == "sampled":
            stream = np.random.SeedSequence(cfg.seed, spawn_key=(j,))
            return dqc1.sample_expectations(
                ex, ey, ensemble, queries, stream, observables=observables
            )
        ex = ex if "x" in observables else 0.0
        ey = ey if "y" in observables else 0.0
        return EstimateRecord(ex, ey, 0.0, 0.0)

    return oracle


def _gap_factor(theta: float) -> float:
    """min(|sin(theta/2)|, |cos(theta/2)|): the most that one trailing qubit,
    whose bit is still unknown, can shrink the gap by."""
    half = theta / 2.0
    return min(abs(math.sin(half)), abs(math.cos(half)))


def learn(
    oracle: Oracle,
    cfg: Dqc1Config,
    budget: BudgetParams,
    *,
    fixed_queries: int | None = None,
    max_queries: int = 10**7,
) -> LearnResult:
    """Recover the hidden string bit by bit.

    Per bit j: query the oracle with data qubits 1..j-1 decoupled and the
    tail rotated, compare |ex| + |ey| to half the worst-case reading of
    the s_j = 0 branch, record the bit, and on a 1 add the correction
    that decouples qubit j from then on.  Both quadratures are sampled
    until the first nonzero reading fixes which one carries the signal;
    every 1 recorded afterwards toggles it, since each removed coupling
    drops one factor of i from the trace.  A `fixed_queries` (queries per
    bit instead of the budget) or `max_queries` that is not an integer of
    at least 1 is refused with ValueError before any query.
    """
    if fixed_queries is not None and require_int(fixed_queries, "fixed_queries") < 1:
        raise ValueError("fixed_queries must be at least 1")
    if require_int(max_queries, "max_queries") < 1:
        raise ValueError("max_queries must be at least 1")
    # an unpolarized probe, or an angle within 1e-9 of a multiple of pi,
    # leaves no signal to read
    if cfg.alpha == 0.0:
        raise ValueError("alpha must lie in (0, 1]")
    n = cfg.n
    if n < 1:
        raise ValueError("nothing to learn for n = 0")
    factor = _gap_factor(cfg.theta)
    if factor < 1e-9:
        raise ValueError("rotation angle must avoid integer multiples of pi")
    # the threshold alpha (1-p) factor^(n-j) / 2, from factors computed once
    # per run and multiplied in the same order
    base = cfg.alpha * (1.0 - cfg.p)
    # the quadrature that carries the signal, once a nonzero reading fixed it
    quadrature: str | None = None
    # bit k-1 set: qubit k was learned as a 1 and is corrected from then on
    corrections = 0
    steps: list[LearnStep] = []
    for j in range(1, n + 1):
        threshold = base * factor ** (n - j) / 2.0
        # a normal threshold keeps every s_j = 0 reading normal too, and
        # is the one the budget is sized for; the message is built only
        # for a refusal
        if abs(threshold) < sys.float_info.min:
            require_normal(threshold, f"the threshold of bit {j}")
        queries = fixed_queries if fixed_queries is not None else query_budget(
            budget, n, threshold
        )
        if queries > max_queries:
            raise BudgetExhaustedError(j, queries, max_queries)
        observables = (quadrature,) if quadrature is not None else ("x", "y")
        record = oracle(j, corrections, budget.L, queries, observables)
        bit = decide_bit(record, threshold)
        if bit:
            corrections |= 1 << (j - 1)
            if quadrature is not None:
                quadrature = "y" if quadrature == "x" else "x"
        elif quadrature is None:
            quadrature = "x" if abs(record.ex) >= abs(record.ey) else "y"
        steps.append(LearnStep(j, record, queries, threshold, bit))
    s_hat = np.array([step.bit for step in steps], dtype=np.uint8)
    return LearnResult(s_hat=s_hat, steps=tuple(steps))
