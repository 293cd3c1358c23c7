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
steps.  Oracles close over s; the learner only ever sees the query
callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Callable, Iterable

import numpy as np

from . import dqc1
from .circuits import (
    StepBlock, as_bits, kinds_tau, mask_kinds, normal_tau, ones_mask, require_normal,
)
from .dqc1 import Dqc1Config, EstimateRecord

#: Hoeffding-style constant in the query budget.
HOEFFDING_C = 2.0

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
    L is the shot count of one query.  The per-bit accuracy comes from the
    discrimination gap, and the polarization and readout noise that scale
    it from the protocol's ``Dqc1Config``.
    """

    delta: float
    L: int
    per_bit_delta: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.L < 1:
            raise ValueError("L must be positive")


@dataclass(frozen=True)
class LearnStep:
    """One probed bit: the estimate it saw and the decision it produced."""

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
    # a qubit below 1 is a negative shift, which raises ValueError
    dec = sum({1 << (int(k) - 1) for k in decoupled})
    block = StepBlock.from_bits(bits, theta, j, dec, ones_mask(bits) & dec)
    return normal_tau(theta, 0.0, block.kinds)


def decide_bit(est: EstimateRecord, threshold: float) -> int:
    """Midpoint rule: report 1 when |ex| + |ey| falls below the threshold."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return 1 if abs(est.ex) + abs(est.ey) < threshold else 0


def _require_polarization(cfg: Dqc1Config) -> None:
    """Refuse an unpolarized probe, whose readout carries no signal."""
    if cfg.alpha == 0.0:
        raise ValueError("alpha must lie in (0, 1]")


def query_budget(budget: BudgetParams, cfg: Dqc1Config, j: int) -> int:
    """Queries required to decide bit j at the canonical angle theta = pi/2.

    ceil(C ln(1/delta') / (L (alpha eps_j (1-p))^2)) with n, alpha and p
    from `cfg`, eps_j = |Delta tau_j| / 2 = (1/sqrt(2))^(n-j) / 2 and
    delta' the per-bit share of the failure budget.  Grows by 2x per extra
    data qubit ahead of j, and diverges as p -> 1.
    """
    n = cfg.n
    if not 1 <= j <= n:
        raise ValueError(f"probe index {j} outside 1..{n}")
    _require_polarization(cfg)
    delta_eff = budget.delta if budget.per_bit_delta else budget.delta / n
    if delta_eff and 1.0 / delta_eff < math.inf:
        log_term = HOEFFDING_C * math.log(1.0 / delta_eff)
    else:  # delta/n underflowed to 0, or 1/delta' overflows: add the logs
        spread = 0.0 if budget.per_bit_delta else math.log(n)
        log_term = HOEFFDING_C * (spread - math.log(budget.delta))
    scale = budget.L * (cfg.alpha * (1.0 - cfg.p)) ** 2
    # eps_j^2 = 2^-(n-j) / 4; keep the exponential as an exact integer so
    # deep strings do not underflow to a zero denominator
    try:
        raw = log_term * 4.0 * float(2 ** (n - j)) / scale
    except (OverflowError, ZeroDivisionError):
        raw = math.inf
    if not math.isfinite(raw):
        # a scale that underflowed to 0 is summed from its factors' logs
        log_scale = math.log2(scale) if scale else math.log2(budget.L) + 2.0 * (
            math.log2(cfg.alpha) + math.log2(1.0 - cfg.p)
        )
        exponent = math.log2(log_term) + 2.0 - log_scale + (n - j)
        return 1 << math.ceil(exponent)
    return max(1, math.ceil(raw))


def make_oracle(s, cfg: Dqc1Config) -> Oracle:
    """Build a protocol query function that closes over the hidden string.

    A query probes bit j with qubits 1..j-1 decoupled and the qubits in
    the int bitmask `corrections` (bit k-1 for qubit k, all below j)
    corrected; every backend first refuses a j outside 1..n, a mask that
    is negative or sets a bit at or after j, and an ensemble or query
    count below 1.  cfg.backend "dense" sums the diagonal of the block's
    matrix qubit by qubit (``StepBlock.dense_trace``, up to ``MAX_QUBITS``),
    "closed" evaluates the trace from the block's kind counts, "sampled"
    adds shot noise to the closed-form values with one RNG stream per
    probed bit (derived from cfg.seed).
    """
    n = cfg.n
    ones = ones_mask(as_bits(s, n=n))
    backend = cfg.backend

    def oracle(
        j: int,
        corrections: int = 0,
        ensemble: int = 1,
        queries: int = 1,
        observables: tuple[str, ...] = ("x", "y"),
    ) -> EstimateRecord:
        j = index(j)
        if not 1 <= j <= n:
            raise ValueError(f"probe index {j} outside 1..{n}")
        # a negative mask shifts to -1, so this refuses it as well
        if corrections >> (j - 1):
            raise ValueError(f"corrections must target decoupled qubits 1..{j - 1}")
        if ensemble < 1 or queries < 1:
            raise ValueError("ensemble and queries must be at least 1")
        rotated = ((1 << n) - 1) >> j << j
        flips = ones ^ corrections
        if backend == "dense":
            tau = StepBlock(cfg.theta, n, rotated, flips).dense_trace() / 2**n
        else:
            tau = kinds_tau(cfg.theta, 0.0, mask_kinds(n, rotated, flips))
        ex, ey = dqc1.expectations_from_tau(cfg.alpha, cfg.p, tau)
        if backend == "sampled":
            stream = np.random.SeedSequence(cfg.seed, spawn_key=(j,))
            return dqc1.sample_expectations(
                ex, ey, ensemble, queries, stream, observables=observables
            )
        ex = ex if "x" in observables else 0.0
        ey = ey if "y" in observables else 0.0
        return EstimateRecord(ex=ex, ey=ey, se_x=0.0, se_y=0.0)

    return oracle


def _worst_case_gap(theta: float, trailing: int) -> float:
    """Smallest |Delta tau_j| over the unknown trailing ones count."""
    s = abs(math.sin(theta / 2.0))
    c = abs(math.cos(theta / 2.0))
    return min(s, c) ** trailing if trailing else 1.0


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
    drops one factor of i from the trace.
    """
    _require_polarization(cfg)
    n = cfg.n
    if n < 1:
        raise ValueError("nothing to learn for n = 0")
    if min(abs(math.sin(cfg.theta / 2.0)), abs(math.cos(cfg.theta / 2.0))) < 1e-9:
        raise ValueError("rotation angle must avoid integer multiples of pi")
    # the quadrature that carries the signal, once a nonzero reading fixed it
    quadrature: str | None = None
    # bit k-1 set: qubit k was learned as a 1 and is corrected from then on
    corrections = 0
    steps: list[LearnStep] = []
    for j in range(1, n + 1):
        gap = _worst_case_gap(cfg.theta, n - j)
        threshold = cfg.alpha * (1.0 - cfg.p) * gap / 2.0
        queries = fixed_queries if fixed_queries is not None else query_budget(
            budget, cfg, j
        )
        if queries > max_queries:
            raise BudgetExhaustedError(j, queries, max_queries)
        # a normal threshold keeps every s_j = 0 reading normal too
        require_normal(threshold, f"the threshold of bit {j}")
        observables = (quadrature,) if quadrature is not None else ("x", "y")
        record = oracle(j, corrections, budget.L, queries, observables)
        bit = decide_bit(record, threshold)
        if bit:
            corrections |= 1 << (j - 1)
            if quadrature is not None:
                quadrature = "y" if quadrature == "x" else "x"
        elif quadrature is None:
            quadrature = "x" if abs(record.ex) >= abs(record.ey) else "y"
        steps.append(
            LearnStep(j=j, record=record, queries=queries, threshold=threshold, bit=bit)
        )
    s_hat = np.array([step.bit for step in steps], dtype=np.uint8)
    return LearnResult(s_hat=s_hat, steps=tuple(steps))
