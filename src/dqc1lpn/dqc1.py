"""One-clean-qubit protocol: configuration, probe readout, shot sampling.

The register holds one probe qubit with polarization alpha (qubit 0) and
n maximally mixed data qubits.  After a probe Hadamard and a controlled
data-register block ``w`` the probe carries the normalized trace of ``w``:

    <sx> + i <sy> = (1 - p) alpha tr(w) / 2^n

where p is the probe readout depolarization rate.  Shot sampling models
each query as the mean of L two-outcome (+-1) measurements.  The dense
run of that circuit (``initial_state``, ``run_protocol``) is the
reference in ``qstate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BACKENDS = ("dense", "closed", "sampled")


@dataclass(frozen=True)
class Dqc1Config:
    """Protocol parameters.

    backend selects how expectation values are produced: "dense" sums
    the diagonal of the block's matrix (``StepBlock.dense_trace``), "closed"
    uses the factorized trace formulas, and "sampled" adds binomial shot
    noise on top of the closed-form values.
    """

    n: int
    alpha: float
    p: float
    theta: float
    backend: str = "dense"
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"readout depolarization p {self.p} outside [0, 1)")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend {self.backend!r} not one of {_BACKENDS}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class EstimateRecord:
    """One estimate of the probe expectations; analytic backends report se 0."""

    ex: float
    ey: float
    se_x: float
    se_y: float

    def __post_init__(self):
        if abs(self.ex) > 1.0 + 1e-12 or abs(self.ey) > 1.0 + 1e-12:
            raise ValueError("expectation estimates must lie in [-1, 1]")
        if self.se_x < 0.0 or self.se_y < 0.0:
            raise ValueError("standard errors must be nonnegative")


def expectations_from_tau(alpha: float, p: float, tau: complex) -> tuple[float, float]:
    """Probe readout (<sx>, <sy>) for a block with normalized trace tau."""
    z = (1.0 - p) * alpha * complex(tau)
    return float(z.real), float(z.imag)


def _sample_one_observable(
    truth: float, L: int, Q: int, stream: np.random.SeedSequence
) -> tuple[float, float]:
    """Mean of Q queries, each the average of L two-outcome shots.

    The Q per-query up-counts are one binomial draw from ``stream``.  The
    estimate averages them in floating point, because an integer total of
    L*Q shots can leave int64.
    """
    ups = np.random.default_rng(stream).binomial(L, (1.0 + truth) / 2.0, size=Q)
    est = (2.0 * float(ups.mean()) - L) / L
    # plug-in standard error of the pooled mean of L*Q shots
    se = math.sqrt(max(0.0, 1.0 - est * est) / (L * Q))
    return est, se


def sample_expectations(
    true_ex: float,
    true_ey: float,
    L: int,
    Q: int,
    stream: np.random.SeedSequence,
    *,
    observables: tuple[str, ...] = ("x", "y"),
) -> EstimateRecord:
    """Simulate shot-noise estimation of the probe expectations.

    Each observable draws from its own child of ``stream``, so reading only
    y gives the same ey as reading both, and identical inputs reproduce the
    record bit for bit.  Observables left out of `observables` are reported
    as 0 with se 0.  L must fit in int64, the range of numpy's binomial
    sampler.
    """
    if abs(true_ex) > 1.0 or abs(true_ey) > 1.0:
        raise ValueError("true expectations must lie in [-1, 1]")
    if L < 1 or Q < 1:
        raise ValueError("L and Q must be positive")
    if L > np.iinfo(np.int64).max:
        raise ValueError(f"L={L} exceeds the int64 range of the shot sampler")
    unknown = set(observables) - {"x", "y"}
    if unknown:
        raise ValueError(f"unknown observables {sorted(unknown)}")
    # children 0 and 1, as a first stream.spawn(2) derives them, without advancing it
    entropy, key, pool = stream.entropy, stream.spawn_key, stream.pool_size
    x_stream, y_stream = (
        np.random.SeedSequence(entropy, spawn_key=key + (k,), pool_size=pool) for k in (0, 1)
    )
    ex = ey = 0.0
    se_x = se_y = 0.0
    if "x" in observables:
        ex, se_x = _sample_one_observable(true_ex, L, Q, x_stream)
    if "y" in observables:
        ey, se_y = _sample_one_observable(true_ey, L, Q, y_stream)
    return EstimateRecord(ex=ex, ey=ey, se_x=se_x, se_y=se_y)
