"""One-clean-qubit protocol: configuration, probe readout, shot sampling.

The register holds one probe qubit with polarization alpha (qubit 0) and
n maximally mixed data qubits.  After a probe Hadamard and a controlled
data-register block ``w`` the probe carries the normalized trace of ``w``:

    <sx> + i <sy> = (1 - p) alpha tr(w) / 2^n

where p is the probe readout depolarization rate.  Shot sampling models
each query as the mean of L two-outcome (+-1) measurements, and reads a
quadrature over Q queries as one binomial draw of L*Q shots; a read of
more than 2^63 - 1 shots, numpy's int64 range, is refused.  The draws of
a run come from one ``ShotStream``: a Philox4x64 generator keyed by the
run's seed, whose read k (0 is x, 1 is y) of bit j starts at counter
(0, 0, k, j), so every count is a pure function of (seed, j, k).  The dense
run of that circuit (``initial_state``, ``run_protocol``) is the
reference in ``tests/dense_reference.py``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from operator import index
from typing import Collection, NamedTuple

import numpy as np

#: The backends of ``Dqc1Config``, and the CLI's --backend choices.
BACKENDS = ("dense", "closed", "sampled")

#: The probe quadratures <sx> ("x") and <sy> ("y"): what a read may take,
#: and its default.
QUADRATURES = frozenset(("x", "y"))

#: the largest shot count one numpy binomial draw takes
_INT64_MAX = int(np.iinfo(np.int64).max)


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


def require_list(values, what: str) -> list:
    """`values` as a list; a str, None, a number or any other value that is
    not a collection raises ValueError naming `what`."""
    try:
        if not isinstance(values, str):
            return list(values)
    except TypeError:
        pass
    raise ValueError(f"{what} must be a collection")


def require_quadratures(observables) -> None:
    """Refuse, with one ValueError, `observables` that is not a nonempty
    collection of ``QUADRATURES``: ("z",), (), a str such as "xy", an
    iterator, None, a number."""
    try:
        # len refuses an iterator before issuperset could use it up
        known = (
            len(observables)
            and QUADRATURES.issuperset(observables)
            and not isinstance(observables, str)
        )
    except TypeError:
        known = False
    if not known:
        raise ValueError('observables must be a collection of "x" and "y"')


@dataclass(frozen=True)
class Dqc1Config:
    """Protocol parameters.

    backend selects how expectation values are produced: "closed", the
    default as on the command line, uses the factorized trace formulas,
    "dense" sums the diagonal of the block's matrix
    (``StepBlock.dense_trace``), and "sampled" adds binomial shot noise on
    top of the closed-form values.
    """

    n: int
    alpha: float
    p: float
    theta: float
    backend: str = "closed"
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
        if self.backend not in BACKENDS:
            raise ValueError(f"backend {self.backend!r} not one of {BACKENDS}")
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


class ShotStream:
    """The shot sampler's random numbers for one run: one Philox4x64
    generator keyed by `seed`, a counter-based generator (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Read k of bit
    j draws from counter (0, 0, k, j), as a fresh
    ``Generator(Philox(key=seed, counter=[0, 0, k, j]))`` would, so a count
    does not depend on what was drawn before it, and no seed is hashed."""

    __slots__ = ("_gen", "_state", "_lock")

    def __init__(self, seed: int):
        # Philox would take None as a key drawn from the OS, and 1.5 as 1
        if not 0 <= require_int(seed, "seed") < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self._gen = np.random.Generator(np.random.Philox(key=seed))
        # a fresh generator's state with Python ints, which the state setter
        # reads faster than arrays: an empty buffer, so a draw starts at the
        # counter set before it
        state = self._gen.bit_generator.state
        key = tuple(int(word) for word in state["state"]["key"])
        self._state = {**state, "state": {"counter": None, "key": key}, "buffer": (0,) * 4}
        # the stream's own lock: the draw takes the bit generator's lock
        # itself, a plain Lock in older numpy, so holding that one would deadlock
        self._lock = threading.Lock()

    def binomial(self, j: int, k: int, shots: int, prob: float) -> int:
        """One Binomial(shots, prob) count from read k of bit j."""
        with self._lock:
            self._state["state"]["counter"] = (0, 0, k, j)
            self._gen.bit_generator.state = self._state
            # a Python int, since 2 * ups would wrap in int64
            return int(self._gen.binomial(shots, prob))


def sample_expectations(
    true_ex: float,
    true_ey: float,
    L: int,
    Q: int,
    stream: ShotStream,
    j: int,
    *,
    observables: Collection[str] = QUADRATURES,
) -> EstimateRecord:
    """Simulate shot-noise estimation of the probe expectations of bit j.

    Each observable is the mean of Q queries, each the average of L
    two-outcome shots: the sum of Q Binomial(L, p) up-counts, drawn as one
    Binomial(L*Q, p) count from read k of bit j of ``stream`` (k = 0 is x,
    k = 1 is y).  So reading only y gives the same ey as reading both, and
    identical inputs reproduce the record bit for bit.  `observables` is a
    collection of ``QUADRATURES``, and those left out are reported as 0
    with se 0.  A read of L*Q shots must fit in int64, the range of numpy's
    binomial sampler, and j must fit in a 64-bit counter word.
    """
    # written so that NaN fails the bound
    if not (abs(require_real(true_ex, "true ex")) <= 1.0
            and abs(require_real(true_ey, "true ey")) <= 1.0):
        raise ValueError(
            f"sample_expectations: true expectations ({true_ex}, {true_ey}) must lie in [-1, 1]"
        )
    # Python ints, whose product does not wrap as two numpy int64s would
    L, Q = require_int(L, "L"), require_int(Q, "Q")
    if L < 1 or Q < 1:
        raise ValueError("L and Q must be positive")
    shots = L * Q
    if shots > _INT64_MAX:
        raise ValueError(
            "a read of L*Q shots exceeds 2^63 - 1, the int64 range of the shot sampler"
        )
    if not 0 <= require_int(j, "j") < 2**64:
        raise ValueError("bit index j must lie in 0..2^64 - 1")
    require_quadratures(observables)
    fields = [0.0, 0.0, 0.0, 0.0]
    for k, (quadrature, truth) in enumerate((("x", true_ex), ("y", true_ey))):
        if quadrature in observables:
            ups = stream.binomial(j, k, shots, (1.0 + truth) / 2.0)
            est = (2 * ups - shots) / shots
            # the estimate, and the plug-in standard error of the pooled mean
            fields[k] = est
            fields[k + 2] = math.sqrt(max(0.0, 1.0 - est * est) / shots)
    return EstimateRecord(*fields)
