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
qubit-set format of ``circuits.StepBlock``).  Oracles close over s; the
learner only ever sees the query callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Callable, Collection, Iterable, NamedTuple

import numpy as np

from . import dqc1
from .circuits import (
    StepBlock, angle_traces, as_bits, kinds_tau, mask_kinds, normal_tau, ones_mask,
    require_normal,
)
from .dqc1 import QUADRATURES, Dqc1Config, EstimateRecord, require_int, require_list, require_real

#: Hoeffding-style constant in the query budget.
HOEFFDING_C = 2.0

#: The integer parameters of a query.
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

    delta is the failure probability the budget is sized for; by default
    it is split globally (delta/n per bit), set per_bit_delta (a bool) to
    spend delta on every bit.  The hardest string has no early 0, so it
    reads both quadratures of every bit: "11111" at pi/2, L = 20,
    delta = 0.05 fails with exact probability 0.0190 under ``decide_bit``'s
    max rule, and failed 39 of 2000 seeded sampled runs.
    L is the shot count of one query.  ``plan`` sizes each bit's query
    count from these, for the threshold ``learn`` compares its reading with.
    """

    delta: float
    L: int
    per_bit_delta: bool = False

    def __post_init__(self):
        if not 0.0 < require_real(self.delta, "delta") < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if require_int(self.L, "L") < 1:
            raise ValueError("L must be positive")
        if not isinstance(self.per_bit_delta, (bool, np.bool_)):
            raise ValueError("per_bit_delta must be a bool")


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
    for k in require_list(decoupled, "decoupled"):
        # range-checked before the shift, which for a huge k would build a huge int
        k = require_int(k, "every qubit of decoupled")
        if not 1 <= k <= bits.size:
            raise ValueError(f"decoupled qubits outside 1..{bits.size}")
        dec |= 1 << (k - 1)
    block = StepBlock.from_bits(bits, theta, j, dec, ones_mask(bits) & dec)
    return normal_tau(angle_traces(theta, 0.0), block.kinds)


def decide_bit(est: EstimateRecord, threshold: float) -> int:
    """Midpoint rule: report 1 when max(|ex|, |ey|), the larger quadrature,
    falls below the threshold.  An unread quadrature is 0, so with one read
    this is |ex| or |ey| alone; with both read, an s_j = 1 bit fails only
    if one of its two noise readings reaches the threshold, not their sum."""
    # NaN fails both bounds
    if not 0.0 < require_real(threshold, "threshold") < math.inf:
        raise ValueError("threshold must be positive and finite")
    # max(|ex|, |ey|) < T as two comparisons, without a call of max per bit
    return 1 if abs(est.ex) < threshold and abs(est.ey) < threshold else 0


def query_budget(budget: BudgetParams, n: int, threshold: float) -> int:
    """Queries required to decide one of n bits against `threshold`, the T
    that ``learn`` compares the bit's reading with.

    The least integer Q with Q L T^2 >= C ln(1/delta'), with delta' the
    per-bit share of the failure budget: ln(1/delta') is the float
    ln n - ln delta (-ln delta with per_bit_delta), and the ceiling of its
    quotient by L T^2 is taken in exact integers, so it holds for any n, L
    and delta and every normal T.  ``plan``'s T_j = alpha (1-p) g^(n-j) / 2,
    with g the gap factor of theta (1/sqrt(2) at pi/2), so the count grows
    by 1/g^2 per extra data qubit ahead of j and diverges as p -> 1.  A T
    that is not a positive normal float is refused, and so is n below 1.
    """
    # 0, a subnormal, a negative T, NaN and inf all fail this test
    if not 2.0**-1022 <= require_real(threshold, "threshold") < math.inf:
        raise ValueError("threshold must be a finite float of at least 2^-1022")
    if require_int(n, "n") < 1:
        raise ValueError("nothing to budget for n < 1")
    spread = 0.0 if budget.per_bit_delta else math.log(n)
    num, den = (HOEFFDING_C * (spread - math.log(budget.delta))).as_integer_ratio()
    top, bottom = float(threshold).as_integer_ratio()
    # ceil(num bottom^2 / (den L top^2)), a positive quotient, in exact integers
    return -(-num * bottom * bottom // (den * index(budget.L) * top * top))


def make_oracle(s, cfg: Dqc1Config) -> Oracle:
    """Build a protocol query function that closes over the hidden string
    s of cfg.n bits.

    A query probes bit j with qubits 1..j-1 decoupled and the qubits in
    the int bitmask `corrections` (bit k-1 for qubit k, all below j)
    corrected, after refusing a count or mask out of range, or one that is
    not an integer, with ValueError naming it.  cfg.backend "dense" sums
    the diagonal of the block's matrix (``StepBlock.dense_trace``, up to
    ``MAX_QUBITS``), "closed" evaluates the trace from the block's kind
    counts (``circuits.mask_kinds``), "sampled" adds shot noise to the
    closed-form values, from one ``dqc1.ShotStream`` keyed by cfg.seed that
    the oracle owns: read k of bit j is a pure function of (cfg.seed, j, k).
    """
    n = cfg.n
    ones = ones_mask(as_bits(s, n=n))
    backend = cfg.backend
    stream = dqc1.ShotStream(cfg.seed) if backend == "sampled" else None
    # per-run constants: every query rotates a suffix of these n qubits, at one angle
    register = (1 << n) - 1
    traces = angle_traces(cfg.theta, 0.0)

    def oracle(
        j: int,
        corrections: int = 0,
        ensemble: int = 1,
        queries: int = 1,
        observables: Collection[str] = QUADRATURES,
    ) -> EstimateRecord:
        # one try on the common path; a refusal looks for the parameter to name
        try:
            j = index(j)
            corrections = index(corrections)
            ensemble = index(ensemble)
            queries = index(queries)
        except TypeError:
            for value, what in zip((j, corrections, ensemble, queries), _QUERY_COUNTS):
                require_int(value, what)
        if not 1 <= j <= n:
            raise ValueError(f"probe index outside 1..{n}")
        # a negative mask shifts to -1, so this refuses it as well
        if corrections >> (j - 1):
            raise ValueError(f"corrections must target decoupled qubits 1..{j - 1}")
        if ensemble < 1 or queries < 1:
            raise ValueError("ensemble and queries must be at least 1")
        rotated = register >> j << j
        flips = ones ^ corrections
        if backend == "dense":
            tau = StepBlock(cfg.theta, n, rotated, flips).dense_trace() / 2**n
        else:
            tau = kinds_tau(traces, mask_kinds(n, rotated, flips))
        ex, ey = dqc1.expectations_from_tau(cfg.alpha, cfg.p, tau)
        if backend == "sampled":
            # sample_expectations refuses bad observables for this backend
            return dqc1.sample_expectations(
                ex, ey, ensemble, queries, stream, j, observables=observables
            )
        dqc1.require_quadratures(observables)
        ex = ex if "x" in observables else 0.0
        ey = ey if "y" in observables else 0.0
        return EstimateRecord(ex, ey, 0.0, 0.0)

    return oracle


def _gap_factor(theta: float) -> float:
    """min(|sin(theta/2)|, |cos(theta/2)|): the most that one trailing qubit,
    whose bit is still unknown, can shrink the gap by."""
    half = theta / 2.0
    return min(abs(math.sin(half)), abs(math.cos(half)))


def plan(
    cfg: Dqc1Config, budget: BudgetParams, *, fixed_queries: int | None = None,
    max_queries: int = 10**7,
) -> tuple[tuple[float, int], ...]:
    """The (T_j, Q_j) of each bit j = 1..n that ``learn`` reads: the threshold
    alpha (1-p) g^(n-j) / 2, g the gap factor of theta, and the query count,
    `fixed_queries` or ``query_budget`` for T_j.  It reads neither s nor any
    reading, and raises each refusal of ``learn``, in its order: ValueError,
    or ``BudgetExhaustedError`` for a Q_j past `max_queries`.  T_j grows with
    j and Q_j does not, so bit 1 is checked before the other pairs are built."""
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
    base = cfg.alpha * (1.0 - cfg.p)
    try:
        first = base * factor ** (n - 1) / 2.0
    except OverflowError:  # an n - 1 past float range: far below 2^-1022
        first = 0.0
    # a normal T_1 keeps every T_j, and every s_j = 0 reading, normal too
    require_normal(first, "the threshold of bit 1")
    queries = fixed_queries if fixed_queries is not None else query_budget(budget, n, first)
    if queries > max_queries:
        raise BudgetExhaustedError(1, queries, max_queries)
    rest = [base * factor ** (n - j) / 2.0 for j in range(2, n + 1)]
    if fixed_queries is None:
        return ((first, queries), *((t, query_budget(budget, n, t)) for t in rest))
    return ((first, queries), *((t, queries) for t in rest))


def learn(
    oracle: Oracle, cfg: Dqc1Config, budget: BudgetParams, *,
    fixed_queries: int | None = None, max_queries: int = 10**7,
) -> LearnResult:
    """Recover the hidden string bit by bit, by the pairs of ``plan``.

    Per bit j: query the oracle with data qubits 1..j-1 decoupled and the
    tail rotated, compare max(|ex|, |ey|) to half the worst-case reading
    of the s_j = 0 branch (``decide_bit``), record the bit, and on a 1 add
    the correction that decouples qubit j from then on.  Both quadratures are sampled
    until the first nonzero reading fixes which one carries the signal;
    every 1 recorded afterwards toggles it, since each removed coupling
    drops one factor of i from the trace.  ``plan`` raises every refusal
    before the first query.
    """
    pairs = plan(cfg, budget, fixed_queries=fixed_queries, max_queries=max_queries)
    ensemble = budget.L
    # the quadrature that carries the signal, once a nonzero reading fixed it
    quadrature: str | None = None
    # bit k-1 set: qubit k was learned as a 1 and is corrected from then on
    corrections = 0
    steps: list[LearnStep] = []
    for j, (threshold, queries) in enumerate(pairs, 1):
        observables = (quadrature,) if quadrature is not None else QUADRATURES
        record = oracle(j, corrections, ensemble, queries, observables)
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
