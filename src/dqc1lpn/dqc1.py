"""One-clean-qubit protocol: configuration, probe readout, shot sampling.

The register holds one probe qubit with polarization alpha (qubit 0) and
n maximally mixed data qubits.  After a probe Hadamard and a controlled
data-register block ``w`` the probe carries the normalized trace of ``w``:

    <sx> + i <sy> = (1 - p) alpha tr(w) / 2^n

where p is the probe readout depolarization rate.  Shot sampling models
each query as the mean of L two-outcome (+-1) measurements, and reads a
quadrature over Q queries as one binomial draw of L*Q shots, split into
int64-sized parts when L*Q is larger.  The dense
run of that circuit (``initial_state``, ``run_protocol``) is the
reference in ``tests/dense_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import NamedTuple

import numpy as np

_BACKENDS = ("dense", "closed", "sampled")

#: the largest shot count one numpy binomial draw takes
_INT64_MAX = int(np.iinfo(np.int64).max)

#: full int64 parts drawn by one numpy call; bounds the array a read holds
_PARTS_PER_CALL = 4096

#: most full int64 parts one read may take: about 0.1 s of draws
_MAX_PARTS = 2**20


def require_int(value, what: str) -> int:
    """`value` as an int (``operator.index``); a float, even 2.0, or any
    other value that is not an integer raises ValueError naming `what`."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None


def require_real(value, what: str):
    """`value` if ``math.isfinite`` takes it (a float, an int in float range,
    anything with ``__float__``); a str, None, a complex or an int past
    float range raises ValueError naming `what`."""
    try:
        math.isfinite(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{what} must be a real number in float range") from None
    return value


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
        if require_int(self.n, "n") < 0:
            raise ValueError("n must be nonnegative")
        if not 0.0 <= require_real(self.alpha, "alpha") <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 <= require_real(self.p, "readout depolarization p") < 1.0:
            raise ValueError(f"readout depolarization p {self.p} outside [0, 1)")
        if not math.isfinite(require_real(self.theta, "angle theta")):
            raise ValueError(f"angle theta {self.theta} is not finite")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend {self.backend!r} not one of {_BACKENDS}")
        if not 0 <= require_int(self.seed, "seed") < 2**64:
            raise ValueError("seed must fit in 64 bits")


class _EstimateFields(NamedTuple):
    ex: float
    ey: float
    se_x: float
    se_y: float


class EstimateRecord(_EstimateFields):
    """One estimate of the probe expectations, an immutable named tuple
    (ex, ey, se_x, se_y); analytic backends report se 0.  Building one, by
    position, by keyword or by ``_make``/``_replace``, checks the estimates
    lie in [-1, 1] and the standard errors are finite and nonnegative; a
    field that is not a real number raises ValueError too."""

    __slots__ = ()

    def __new__(cls, ex: float, ey: float, se_x: float, se_y: float):
        try:
            # written so that NaN fails both bounds, and a complex raises
            in_range = (
                -1.0 - 1e-12 <= ex <= 1.0 + 1e-12 and -1.0 - 1e-12 <= ey <= 1.0 + 1e-12
            )
            finite = 0.0 <= se_x < math.inf and 0.0 <= se_y < math.inf
        except TypeError:
            raise ValueError("estimates and standard errors must be real numbers") from None
        if not in_range:
            raise ValueError("expectation estimates must lie in [-1, 1]")
        if not finite:
            raise ValueError("standard errors must be finite and nonnegative")
        return tuple.__new__(cls, (ex, ey, se_x, se_y))

    @classmethod
    def _make(cls, iterable) -> "EstimateRecord":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def expectations_from_tau(alpha: float, p: float, tau: complex) -> tuple[float, float]:
    """Probe readout (<sx>, <sy>) for a block with normalized trace tau."""
    z = (1.0 - p) * alpha * complex(tau)
    return float(z.real), float(z.imag)


def _sample_one_observable(
    truth: float, L: int, Q: int, stream: np.random.SeedSequence
) -> tuple[float, float]:
    """Mean of Q queries, each the average of L two-outcome shots.

    The sum of Q Binomial(L, p) up-counts is Binomial(L*Q, p), so the
    quadrature is one binomial draw of L*Q shots from ``stream``.  When
    L*Q leaves int64 the draw splits into int64-sized parts, summed as
    Python ints, since an int64 sum would wrap; with L in int64 there are at
    most Q parts, and ``sample_expectations`` refuses more than
    ``_MAX_PARTS`` full ones.  The full parts are drawn as arrays of up to
    ``_PARTS_PER_CALL``, which take the same numbers from the stream as
    one draw each, and the remainder part last.
    """
    shots = L * Q
    full, rest = divmod(shots, _INT64_MAX)
    rng = np.random.default_rng(stream)
    prob = (1.0 + truth) / 2.0
    ups = 0
    for start in range(0, full, _PARTS_PER_CALL):
        parts = rng.binomial(_INT64_MAX, prob, size=min(_PARTS_PER_CALL, full - start))
        ups += sum(parts.tolist())
    if rest:
        ups += int(rng.binomial(rest, prob))
    est = (2 * ups - shots) / shots
    # plug-in standard error of the pooled mean of L*Q shots
    se = math.sqrt(max(0.0, 1.0 - est * est) / shots)
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

    Each observable draws from its own child of ``stream`` (child 0 is x,
    child 1 is y, each built only when read), so reading only y gives the
    same ey as reading both, and identical inputs reproduce the record bit
    for bit.  Observables left out of `observables` are reported as 0 with
    se 0.  L must fit in int64, the range of numpy's binomial sampler, so a
    read of L*Q shots splits into at most Q int64-sized parts, drawn
    ``_PARTS_PER_CALL`` to a numpy call; a read of more than ``_MAX_PARTS``
    full parts is refused.
    """
    # written so that NaN fails the bound
    if not (abs(require_real(true_ex, "true ex")) <= 1.0
            and abs(require_real(true_ey, "true ey")) <= 1.0):
        raise ValueError(
            f"sample_expectations: true expectations ({true_ex}, {true_ey}) must lie in [-1, 1]"
        )
    if require_int(L, "L") < 1 or require_int(Q, "Q") < 1:
        raise ValueError("L and Q must be positive")
    if L > _INT64_MAX:
        raise ValueError("L exceeds 2^63 - 1, the int64 range of the shot sampler")
    if L * Q // _INT64_MAX > _MAX_PARTS:
        raise ValueError("a read of L*Q shots exceeds 2^20 int64 draws of the shot sampler")
    unknown = set(observables) - {"x", "y"}
    if unknown:
        raise ValueError(f"unknown observables {sorted(unknown)}")
    # child k, as a first stream.spawn(2) derives it, without advancing the stream
    entropy, key, pool = stream.entropy, stream.spawn_key, stream.pool_size

    def read(k: int, truth: float) -> tuple[float, float]:
        child = np.random.SeedSequence(entropy, spawn_key=key + (k,), pool_size=pool)
        return _sample_one_observable(truth, L, Q, child)

    ex, se_x = read(0, true_ex) if "x" in observables else (0.0, 0.0)
    ey, se_y = read(1, true_ey) if "y" in observables else (0.0, 0.0)
    return EstimateRecord(ex=ex, ey=ey, se_x=se_x, se_y=se_y)
