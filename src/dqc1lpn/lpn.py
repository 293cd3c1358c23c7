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

Oracles close over s; the learner only ever sees the query callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import dqc1
from .circuits import StepBlock, as_bits, require_normal
from .dqc1 import Dqc1Config, EstimateRecord

#: Hoeffding-style constant in the query budget.
HOEFFDING_C = 2.0

#: Type of a protocol query: (j, decoupled, corrections, ensemble, queries,
#: observables) -> EstimateRecord.
Oracle = Callable[..., EstimateRecord]


class BudgetExhaustedError(RuntimeError):
    """Raised when one bit would need more queries than the caller allows."""

    def __init__(self, j: int, required: int, allowed: int):
        super().__init__(
            f"bit {j} needs {required} queries, budget allows {allowed}"
        )
        self.j = j
        self.required = required
        self.allowed = allowed


@dataclass(frozen=True)
class BudgetParams:
    """Shot-budget planning parameters.

    delta is the failure probability; by default it is split globally
    (delta/n per bit), set per_bit_delta to spend delta on every bit.
    The per-bit accuracy comes from the discrimination gap.
    """

    delta: float
    alpha: float
    p: float
    L: int
    per_bit_delta: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= self.p < 1.0:
            raise ValueError("p must lie in [0, 1)")
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


def draw_classical_samples(
    s, p: float, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """`count` noisy parity samples: uniform x and y = <s, x> xor e with
    P(e=1) = p/2."""
    if not 0.0 <= p < 1.0:
        raise ValueError("noise rate p must lie in [0, 1)")
    bits = as_bits(s)
    gen = np.random.default_rng(seed)
    xs = gen.integers(0, 2, size=(count, bits.size), dtype=np.uint8)
    clean = (xs @ bits.astype(np.int64)) & 1
    flips = gen.random(count) < p / 2.0
    return xs, (clean ^ flips).astype(np.uint8)


def closed_form_tau(s, theta: float, j: int, decoupled: Iterable[int] = ()) -> complex:
    """Normalized trace for probing bit j with the given qubits decoupled
    and their 1s corrected (``StepBlock.tau``); a trace that is not exactly
    zero but falls below 2^-1022 raises ValueError."""
    bits = as_bits(s).tolist()
    dec = frozenset(int(k) for k in decoupled)
    corr = {k for k, bit in enumerate(bits, 1) if bit and k in dec}
    block = StepBlock.from_bits(bits, theta, j, dec, corr)
    return block.tau() if block.vanishes() else require_normal(block.tau(), "the trace")


def decide_bit(est: EstimateRecord, threshold: float) -> int:
    """Midpoint rule: report 1 when |ex| + |ey| falls below the threshold."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return 1 if abs(est.ex) + abs(est.ey) < threshold else 0


def query_budget(budget: BudgetParams, n: int, j: int) -> int:
    """Queries required to decide bit j at the canonical angle theta = pi/2.

    ceil(C ln(1/delta') / (L (alpha eps_j (1-p))^2)) with
    eps_j = |Delta tau_j| / 2 = (1/sqrt(2))^(n-j) / 2 and delta' the
    per-bit share of the failure budget.  Grows by 2x per extra data
    qubit ahead of j, and diverges as p -> 1.
    """
    if not 1 <= j <= n:
        raise ValueError(f"probe index {j} outside 1..{n}")
    delta_eff = budget.delta if budget.per_bit_delta else budget.delta / n
    log_term = HOEFFDING_C * math.log(1.0 / delta_eff)
    scale = budget.L * (budget.alpha * (1.0 - budget.p)) ** 2
    # eps_j^2 = 2^-(n-j) / 4; keep the exponential as an exact integer so
    # deep strings do not underflow to a zero denominator
    try:
        raw = log_term * 4.0 * float(2 ** (n - j)) / scale
    except OverflowError:
        raw = math.inf
    if not math.isfinite(raw):
        exponent = math.log2(log_term) + 2.0 - math.log2(scale) + (n - j)
        return 1 << math.ceil(exponent)
    return max(1, math.ceil(raw))


def make_oracle(s, cfg: Dqc1Config, kind: str | None = None) -> Oracle:
    """Build a protocol query function that closes over the hidden string.

    kind "dense" runs the full matrices, "closed" evaluates the factorized
    trace, "sampled" adds shot noise to the closed-form values with one
    RNG stream per probed bit (derived from cfg.seed).
    """
    # plain ints, normalized once: the block is rebuilt on every query
    bits = as_bits(s, n=cfg.n).tolist()
    kind = kind or cfg.backend
    if kind not in ("dense", "closed", "sampled"):
        raise ValueError(f"unknown oracle kind {kind!r}")

    def true_tau(j, decoupled, corrections):
        block = StepBlock.from_bits(bits, cfg.theta, j, decoupled, corrections)
        if kind == "dense":
            return block.dense().trace() / 2**cfg.n
        return block.tau()

    def oracle(
        j: int,
        decoupled: Iterable[int] = (),
        corrections: Iterable[int] = (),
        ensemble: int = 1,
        queries: int = 1,
        observables: tuple[str, ...] = ("x", "y"),
    ) -> EstimateRecord:
        tau = true_tau(j, decoupled, corrections)
        ex, ey = dqc1.expectations_from_tau(cfg.alpha, cfg.p, tau)
        if kind == "sampled":
            stream = np.random.SeedSequence(cfg.seed, spawn_key=(int(j),))
            return dqc1.sample_expectations(
                cfg, ex, ey, ensemble, queries,
                stream=stream, observables=observables,
            )
        ex = ex if "x" in observables else 0.0
        ey = ey if "y" in observables else 0.0
        return EstimateRecord(
            ex=ex, ey=ey, se_x=0.0, se_y=0.0,
            ensemble_L=ensemble, queries_Q=queries,
        )

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
    n = cfg.n
    if n < 1:
        raise ValueError("nothing to learn for n = 0")
    if min(abs(math.sin(cfg.theta / 2.0)), abs(math.cos(cfg.theta / 2.0))) < 1e-9:
        raise ValueError("rotation angle must avoid integer multiples of pi")
    # the quadrature that carries the signal, once a nonzero reading fixed it
    quadrature: str | None = None
    corrections: set[int] = set()
    steps: list[LearnStep] = []
    for j in range(1, n + 1):
        gap = _worst_case_gap(cfg.theta, n - j)
        threshold = cfg.alpha * (1.0 - cfg.p) * gap / 2.0
        queries = fixed_queries if fixed_queries is not None else query_budget(
            budget, n, j
        )
        if queries > max_queries:
            raise BudgetExhaustedError(j, queries, max_queries)
        # a normal threshold keeps every s_j = 0 reading normal too
        require_normal(threshold, f"the threshold of bit {j}")
        observables = (quadrature,) if quadrature is not None else ("x", "y")
        record = oracle(
            j,
            frozenset(range(1, j)),
            frozenset(corrections),
            budget.L,
            queries,
            observables,
        )
        bit = decide_bit(record, threshold)
        if bit:
            corrections.add(j)
            if quadrature is not None:
                quadrature = "y" if quadrature == "x" else "x"
        elif quadrature is None:
            quadrature = "x" if abs(record.ex) >= abs(record.ey) else "y"
        steps.append(
            LearnStep(j=j, record=record, queries=queries, threshold=threshold, bit=bit)
        )
    s_hat = np.array([step.bit for step in steps], dtype=np.uint8)
    return LearnResult(s_hat=s_hat, steps=tuple(steps))


def brute_force_baseline(samples: Sequence[tuple], n: int) -> np.ndarray:
    """Classical reference: scan all 2^n candidates, keep the one with the
    fewest disagreements (ties go to the lowest lexicographic string)."""
    if n < 1 or n > 20:
        raise ValueError("n outside 1..20")
    total = 2**n
    if not samples:
        return np.zeros(n, dtype=np.uint8)
    xs = np.array([as_bits(x, n=n) for x, _ in samples], dtype=np.int64)
    ys = np.array([int(y) for _, y in samples], dtype=np.int64)
    if np.isin(ys, (0, 1)).sum() != ys.size:
        raise ValueError("labels must be bits")
    best_idx = 0
    best_count = None
    shifts = np.arange(n - 1, -1, -1)
    for start in range(0, total, 4096):
        idx = np.arange(start, min(start + 4096, total))
        cands = (idx[:, None] >> shifts[None, :]) & 1
        parities = (xs @ cands.T) & 1
        counts = (parities != ys[:, None]).sum(axis=0)
        pos = int(counts.argmin())
        if best_count is None or counts[pos] < best_count:
            best_count = int(counts[pos])
            best_idx = int(idx[pos])
    return ((best_idx >> shifts) & 1).astype(np.uint8)
