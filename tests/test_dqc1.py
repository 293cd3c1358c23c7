import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1lpn import circuits, dqc1, infomeasures, lpn, noise
from dqc1lpn.dqc1 import (
    Dqc1Config,
    EstimateRecord,
    expectations_from_tau,
    sample_expectations,
)
from dqc1lpn.lpn import BudgetParams, query_budget

import dense_reference as qstate
from conftest import random_unitary
from dense_reference import (
    OperatorMatrix,
    initial_state,
    probe_expectations,
    run_protocol,
)


def test_config_validation():
    Dqc1Config(n=2, alpha=0.5, p=0.1, theta=1.0)
    with pytest.raises(ValueError):
        Dqc1Config(n=-1, alpha=0.5, p=0.0, theta=1.0)
    with pytest.raises(ValueError):
        Dqc1Config(n=2, alpha=1.5, p=0.0, theta=1.0)
    with pytest.raises(ValueError):
        Dqc1Config(n=2, alpha=0.5, p=1.0, theta=1.0)
    with pytest.raises(ValueError):
        Dqc1Config(n=2, alpha=0.5, p=0.0, theta=1.0, backend="magic")
    # a non-finite angle gave NaN thresholds and a wrong s_hat, without an error
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            Dqc1Config(n=2, alpha=0.5, p=0.0, theta=theta, backend="closed")
    # counts and seeds are integers: an infinite seed raised OverflowError,
    # and a fractional n or seed was accepted
    for fields in ({"seed": math.inf}, {"seed": 1.5}, {"n": 2.5}, {"n": 2.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            Dqc1Config(**{"n": 2, "alpha": 0.5, "p": 0.0, "theta": 1.0, **fields})
    assert Dqc1Config(n=np.int64(2), alpha=0.5, p=0.0, theta=1.0, seed=np.uint64(3)).n == 2


def test_initial_state_half_polarized():
    cfg = Dqc1Config(n=1, alpha=0.5, p=0.0, theta=1.0)
    rho = initial_state(cfg)
    np.testing.assert_allclose(
        rho.entries, np.diag([3 / 8, 3 / 8, 1 / 8, 1 / 8]), atol=1e-15
    )


def test_initial_state_no_register():
    cfg = Dqc1Config(n=0, alpha=1.0, p=0.0, theta=1.0)
    np.testing.assert_allclose(initial_state(cfg).entries, np.diag([1.0, 0.0]))


def test_output_state_block_form(rng):
    """Final state is (1 + alpha(|0><1| W^dag + |1><0| W))/2^{n+1}."""
    cfg = Dqc1Config(n=2, alpha=0.7, p=0.0, theta=1.0)
    w = random_unitary(rng, 4)
    rho = run_protocol(cfg, OperatorMatrix(w, unitary=True))
    dim = 4
    norm = 2 ** (cfg.n + 1)
    np.testing.assert_allclose(rho.entries[:dim, :dim], np.eye(dim) / norm, atol=1e-12)
    np.testing.assert_allclose(
        rho.entries[dim:, :dim], cfg.alpha * w / norm, atol=1e-12
    )
    np.testing.assert_allclose(
        rho.entries[:dim, dim:], cfg.alpha * w.conj().T / norm, atol=1e-12
    )


def test_expectations_from_tau_quarter_signal():
    # alpha=1/2, p=1/2, tau=i/2: only the sy quadrature survives
    ex, ey = expectations_from_tau(0.5, 0.5, 0.5j)
    assert ex == pytest.approx(0.0, abs=1e-15)
    assert ey == pytest.approx(1 / 8, abs=1e-15)


def test_probe_readout_of_protocol_state():
    bits = circuits.as_bits("10")
    cfg = Dqc1Config(n=2, alpha=0.9, p=0.0, theta=np.pi / 2)
    block = qstate.block_operator(circuits.StepBlock.from_bits(bits, np.pi / 2))
    rho = run_protocol(cfg, block)
    ex, ey = probe_expectations(rho)
    # tau = (i sin(pi/4)) cos(pi/4) = i/2
    assert ex == pytest.approx(0.0, abs=1e-12)
    assert ey == pytest.approx(0.9 / 2, abs=1e-12)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
def test_probe_depolarization_scales_readout(rng, p):
    """Depolarizing the probe after the run multiplies both quadratures by 1-p."""
    cfg = Dqc1Config(n=2, alpha=0.8, p=0.0, theta=1.0)
    w = random_unitary(rng, 4)
    rho = run_protocol(cfg, OperatorMatrix(w, unitary=True))
    clean = probe_expectations(rho)
    noisy = probe_expectations(qstate.depolarize(rho, p, [0]))
    assert noisy[0] == pytest.approx((1 - p) * clean[0], abs=1e-12)
    assert noisy[1] == pytest.approx((1 - p) * clean[1], abs=1e-12)


def _by_keyword(*fields):
    return EstimateRecord(**dict(zip(EstimateRecord._fields, fields)))


def _by_replace(*fields):
    zero = EstimateRecord(0.0, 0.0, 0.0, 0.0)
    return zero._replace(**dict(zip(EstimateRecord._fields, fields)))


def test_estimate_record_validation():
    """Every check holds whether the record is built by position, by keyword
    or by ``_replace``."""
    for build in (EstimateRecord, _by_keyword, _by_replace):
        build(0.1, -0.2, 0.01, 0.01)
        with pytest.raises(ValueError):
            build(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            build(0.0, 0.0, -0.1, 0.0)
        # NaN fails every bound
        for fields in ((math.nan, 0.0, 0.0, 0.0), (0.0, math.nan, 0.0, 0.0),
                       (0.0, 0.0, math.nan, 0.0), (0.0, 0.0, 0.0, math.nan)):
            with pytest.raises(ValueError):
                build(*fields)
        # an infinite standard error says nothing about the estimate
        for fields in ((0.0, 0.0, math.inf, 0.0), (0.0, 0.0, 0.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                build(*fields)


def test_estimate_record_is_an_immutable_named_tuple():
    by_position = EstimateRecord(0.1, -0.2, 0.01, 0.02)
    assert EstimateRecord(ex=0.1, ey=-0.2, se_x=0.01, se_y=0.02) == by_position
    assert by_position == (0.1, -0.2, 0.01, 0.02)
    ex, ey, se_x, se_y = by_position
    assert (ex, ey, se_x, se_y) == (0.1, -0.2, 0.01, 0.02)
    assert (by_position.ex, by_position.se_y) == (0.1, 0.02)
    with pytest.raises(AttributeError):
        by_position.ex = 0.5
    with pytest.raises(AttributeError):
        by_position.extra = 0.5
    # a field that is not a real number is a ValueError, not a TypeError
    for fields in (("a", 0.0, 0.0, 0.0), (0.0, None, 0.0, 0.0), (0.0, 0.0, "0", 0.0),
                   (0.5j, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="real numbers"):
            EstimateRecord(*fields)


#: What a library caller may pass where a count, a mask or a number belongs:
#: small and huge ints, floats with NaN and the infinities, strings, None.
_VALUES = st.one_of(
    st.integers(-3, 70),
    st.integers(-(2**5000), 2**5000),
    st.floats(),
    st.text(max_size=4),
    st.none(),
)

#: _VALUES without the ints from 9 to 2^200, which as Q could ask a read of
#: up to 2^20 int64 parts; 2^200 or more is refused whatever L is
_NOT_A_FEW = st.one_of(
    st.integers(-3, 0), st.integers(2**200, 2**5000), st.floats(), st.text(max_size=4),
    st.none(),
)


def _mostly(valid, junk=_VALUES):
    """`valid` four draws in five, else `junk`, so that most calls get past
    their first check."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else junk)


def _finite(*values):
    """Whether every value is an int (of any size) or a finite float."""
    return all(isinstance(v, int) or math.isfinite(v) for v in values)


def _ints(*values):
    """Whether every value is an int: a call that took a count, mask or
    qubit that is not one truncated it or ignored it."""
    return all(isinstance(v, int) for v in values)


def _config(draw):
    cfg = Dqc1Config(
        n=draw(_mostly(st.integers(0, 70))),
        alpha=draw(_mostly(st.floats(0.0, 1.0))),
        p=draw(_mostly(st.floats(0.0, 1.0, exclude_max=True))),
        theta=draw(_mostly(st.floats(-10.0, 10.0))),
        seed=draw(_mostly(st.integers(0, 2**64 - 1))),
    )
    return _finite(cfg.n, cfg.alpha, cfg.p, cfg.theta, cfg.seed)


def _block(draw):
    mask = _mostly(st.integers(0, 2**12 - 1))
    block = circuits.StepBlock(
        draw(_mostly(st.floats(-10.0, 10.0))), draw(_mostly(st.integers(0, 12))),
        draw(mask), draw(mask), draw(_mostly(st.floats(-4.0, 4.0))),
    )
    tau = block.tau()
    return _finite(tau.real, tau.imag)


def _record(draw):
    estimate, error = _mostly(st.floats(-1.0, 1.0)), _mostly(st.floats(0.0, 1.0))
    return _finite(*EstimateRecord(draw(estimate), draw(estimate), draw(error), draw(error)))


def _sample(draw):
    truth = _mostly(st.floats(-1.0, 1.0))
    # L in int64 and Q up to 8 keep a read to at most 8 int64 parts
    L = draw(_mostly(st.integers(1, 2**63 - 1)))
    Q = draw(_mostly(st.integers(1, 8), _NOT_A_FEW))
    return _finite(*sample_expectations(draw(truth), draw(truth), L, Q, _seed(0)))


def _budget(draw):
    budget = BudgetParams(
        draw(_mostly(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
        draw(_mostly(st.integers(1, 10**6))),
    )
    n, threshold = draw(_mostly(st.integers(1, 10**4))), draw(_mostly(st.floats(0.0, 1.0)))
    queries = query_budget(budget, n, threshold)
    return isinstance(queries, int) and queries >= 1


#: _VALUES without the huge ints, for qubit indices: code that shifted a
#: qubit into a mask before checking its range would allocate a mask of
#: that many bits
_SMALL_VALUES = st.one_of(st.integers(-3, 70), st.floats(), st.text(max_size=4), st.none())

#: What a caller may pass as a query's observables besides the quadratures
_NOT_OBSERVABLES = st.one_of(
    st.tuples(st.text(max_size=2)), st.text(max_size=2), st.none(), st.integers(-3, 3)
)


def _qubit_junk(n):
    """What may stand where a qubit 1..n belongs: floats within the register,
    which ``int`` would truncate to a qubit, or _SMALL_VALUES."""
    return st.floats(1.0, n) | _SMALL_VALUES


def _bits(draw, n):
    return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


def _closed_config(n):
    return Dqc1Config(n=n, alpha=0.8, p=0.1, theta=1.0, backend="closed")


def _oracle_0110():
    return lpn.make_oracle("0110", _closed_config(4))


def _learn_0110(**plan):
    return lpn.learn(_oracle_0110(), _closed_config(4), BudgetParams(0.1, 10), **plan)


def _query(draw, backend, top):
    """One query of the `backend` oracle over at most `top` qubits."""
    n = draw(st.integers(1, top))
    cfg = Dqc1Config(n=n, alpha=0.8, p=0.1, theta=1.0, backend=backend, seed=3)
    oracle = lpn.make_oracle(_bits(draw, n), cfg)
    j = draw(_mostly(st.integers(1, n)))
    below = j - 1 if isinstance(j, int) and 1 <= j <= n else n
    counts = (
        j,
        draw(_mostly(st.integers(0, 2**below - 1))),
        draw(_mostly(st.integers(1, 2**63 - 1))),
        # as for _sample's Q, a read stays at most 8 int64 parts
        draw(_mostly(st.integers(1, 8), _NOT_A_FEW)),
    )
    observables = draw(_mostly(st.sampled_from([("x", "y"), ("x",), ("y",)]), _NOT_OBSERVABLES))
    record = oracle(*counts, observables)
    return _finite(*record) and _ints(*counts)


def _oracle_closed(draw):
    return _query(draw, "closed", 70)


def _oracle_sampled(draw):
    return _query(draw, "sampled", 70)


def _oracle_dense(draw):
    return _query(draw, "dense", 6)


def _learn(draw):
    n = draw(st.integers(1, 8))
    cfg = Dqc1Config(n=n, alpha=1.0, p=0.0, theta=math.pi / 2, backend="closed")
    oracle = lpn.make_oracle(_bits(draw, n), cfg)
    fixed = draw(_mostly(st.none() | st.integers(1, 10**6)))
    most = draw(_mostly(st.integers(1, 10**12)))
    try:
        result = lpn.learn(
            oracle, cfg, BudgetParams(0.1, 100), fixed_queries=fixed, max_queries=most
        )
    except lpn.BudgetExhaustedError:
        return True
    return all(_ints(step.queries) and 1 <= step.queries <= most for step in result.steps)


def _phase_flips(draw):
    n = draw(st.integers(1, 8))
    flips = draw(st.lists(_mostly(st.integers(1, n), _qubit_junk(n)), max_size=3))
    with warnings.catch_warnings():
        # a flip on an uncoupled qubit warns
        warnings.simplefilter("ignore")
        record = noise.phase_flip_parity_experiment(_bits(draw, n), _closed_config(n), flips)
    return _finite(*record) and _ints(*flips)


def _closed_form_tau(draw):
    n = draw(st.integers(1, 8))
    j = draw(_mostly(st.integers(1, n)))
    decoupled = draw(st.lists(_mostly(st.integers(1, n), _qubit_junk(n)), max_size=3))
    theta = draw(_mostly(st.floats(-10.0, 10.0)))
    tau = lpn.closed_form_tau(_bits(draw, n), theta, j, decoupled=decoupled)
    return _finite(tau.real, tau.imag) and _ints(*decoupled)


def _protocol_discord(draw):
    n = draw(st.integers(1, 8))
    theta = draw(st.sampled_from([0.3, 1.0, math.pi / 2, 2.4]))
    block = circuits.StepBlock.from_bits(_bits(draw, n), theta, draw(st.integers(1, n)))
    return _finite(infomeasures.protocol_discord(block, draw(_mostly(st.floats(0.0, 1.0)))).discord)


def _coherence(draw):
    unit = _mostly(st.floats(0.0, 1.0))
    return _finite(infomeasures.coherence_consumption(draw(unit), draw(unit)))


def _midcircuit(draw):
    n = draw(st.integers(1, 8))
    q_grid = draw(st.lists(_mostly(st.floats(0.0, 0.2)), max_size=3))
    return _finite(*noise.midcircuit_noise_sweep(_bits(draw, n), _closed_config(n), q_grid))


@pytest.mark.parametrize("call", [
    _config, _block, _record, _sample, _budget, _oracle_closed, _oracle_sampled, _oracle_dense,
    _learn, _phase_flips, _closed_form_tau, _protocol_discord, _coherence, _midcircuit,
])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_library_entry_points_refuse_with_value_error(call, data):
    """Each entry point, given any mix of ints, huge ints, floats (NaN and
    inf among them), strings and None, raises ValueError or returns finite
    values, having taken only integers where a count, mask or qubit
    belongs; ``learn`` may also run out of budget, and its steps spend an
    integer count of queries within it."""
    try:
        finite = call(data.draw)
    except ValueError:
        return
    assert finite


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: circuits.StepBlock(1.0, 2.5, 0, 0), "n"),
        (lambda: circuits.StepBlock(1.0, 2, 1.5, 0), "rotated"),
        (lambda: sample_expectations(0.5, 0.5, 10.5, 3, _seed(0)), "L"),
        (lambda: sample_expectations(0.5, 0.5, 10, 3.5, _seed(0)), "Q"),
        (lambda: Dqc1Config(n=2, alpha="0.5", p=0.0, theta=1.0), "alpha"),
        (lambda: Dqc1Config(n=2, alpha=0.5, p=0.0, theta="1"), "theta"),
        (lambda: BudgetParams("0.1", 10), "delta"),
        (lambda: EstimateRecord("a", 0.0, 0.0, 0.0), "estimates"),
        (lambda: query_budget(BudgetParams(0.1, 10), 2.5, 0.1), "n"),
        (lambda: _oracle_0110()(1.0), "j"),
        (lambda: _oracle_0110()(2, 0.5), "corrections"),
        (lambda: _oracle_0110()(1, 0, 1, 1.5), "queries"),
        (lambda: _oracle_0110()(1, 0, 1, 1, ("z",)), "observables"),
        (lambda: _learn_0110(fixed_queries=1.5), "fixed_queries"),
        (lambda: _learn_0110(max_queries=float("nan")), "max_queries"),
        (lambda: _learn_0110(max_queries=0.5), "max_queries"),
        (lambda: noise.phase_flip_parity_experiment("0110", _closed_config(4), [2.7]),
         "flip_set"),
        (lambda: lpn.closed_form_tau("0110", 1.0, 3, decoupled=[1.7]), "decoupled"),
        (lambda: infomeasures.protocol_discord(
            circuits.StepBlock.from_bits([0, 1, 1, 0], 1.0, 1), "0.5"), "alpha"),
        (lambda: infomeasures.coherence_consumption(None, 0.5), "alpha"),
        (lambda: infomeasures.binary_entropy("0.5"), "x"),
        (lambda: noise.midcircuit_noise_sweep("0110", _closed_config(4), ["0.1"]), "q"),
    ],
    ids=["block-n", "block-mask", "sample-L", "sample-Q", "config-alpha", "config-theta",
         "budget-delta", "record", "budget-n", "oracle-j", "oracle-mask", "oracle-queries",
         "oracle-observables", "learn-fixed", "learn-max-nan", "learn-max-half", "flip-set",
         "tau-decoupled", "discord-alpha", "coherence-alpha", "entropy-x", "midcircuit-q"],
)
def test_entry_points_name_the_parameter_they_refuse(call, name):
    """A count that is not an integer, or a number that is a string, was a
    TypeError (or, for the budget's n, a silent 65 queries); the oracle took
    1.5 queries and an unknown observable, ``learn`` 1.5 queries per bit and
    a cap of NaN, and a flipped qubit of 2.7 was qubit 2."""
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()


def _seed(k):
    return np.random.SeedSequence(k)


def test_sampling_is_seed_deterministic():
    a = sample_expectations(0.3, -0.1, 500, 3, _seed(7))
    b = sample_expectations(0.3, -0.1, 500, 3, _seed(7))
    assert a == b
    c = sample_expectations(0.3, -0.1, 500, 3, _seed(8))
    assert c != a


def test_sampling_reuses_a_stream_object():
    """Two calls with one SeedSequence object return the same record, the
    one drawn from the first two children that a fresh stream spawns."""
    stream = _seed(7)
    first = sample_expectations(0.3, -0.1, 500, 3, stream)
    assert sample_expectations(0.3, -0.1, 500, 3, stream) == first
    x_stream, y_stream = _seed(7).spawn(2)
    # one binomial draw of L*Q = 1500 shots per quadrature
    ups_x = int(np.random.default_rng(x_stream).binomial(1500, 0.65))
    ups_y = int(np.random.default_rng(y_stream).binomial(1500, 0.45))
    assert first.ex == (2 * ups_x - 1500) / 1500
    assert first.ey == (2 * ups_y - 1500) / 1500


def test_sampling_splits_shots_beyond_int64():
    """L*Q = 2^65 shots leave int64: the draw is four full int64 parts and a
    remainder of 4, in that order, from the quadrature's child stream."""
    L, Q = 2**62, 8
    rec = sample_expectations(0.3, -0.1, L, Q, _seed(7))
    assert sample_expectations(0.3, -0.1, L, Q, _seed(7)) == rec
    top = 2**63 - 1
    for stream, truth, est in zip(_seed(7).spawn(2), (0.3, -0.1), (rec.ex, rec.ey)):
        rng = np.random.default_rng(stream)
        ups = sum(int(rng.binomial(top, (1.0 + truth) / 2.0)) for _ in range(4))
        ups += int(rng.binomial(4, (1.0 + truth) / 2.0))
        assert est == (2 * ups - L * Q) / (L * Q)
        assert math.isfinite(est) and -1.0 <= est <= 1.0
        assert abs(est - truth) < 1e-6
    assert rec.se_x > 0.0 and rec.se_y > 0.0


def test_sampling_draws_full_parts_in_bounded_calls(monkeypatch):
    """10^5 full int64 parts per quadrature take a few array draws of at
    most ``_PARTS_PER_CALL`` parts each, not one Python call per part."""
    calls = []

    class Spy:
        def __init__(self, rng):
            self._rng = rng

        def binomial(self, n, p, size=None):
            calls.append(1 if size is None else size)
            return self._rng.binomial(n, p, size=size)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Spy(default_rng(seed)))
    Q = 10**5
    rec = sample_expectations(0.3, -0.1, dqc1._INT64_MAX, Q, _seed(7))
    assert sum(calls) == 2 * Q
    assert len(calls) == 2 * math.ceil(Q / dqc1._PARTS_PER_CALL)
    assert max(calls) <= dqc1._PARTS_PER_CALL
    assert abs(rec.ex - 0.3) < 1e-6 and abs(rec.ey + 0.1) < 1e-6


@pytest.mark.parametrize("p", [0.0, 0.123, 0.5, 0.9, 1.0])
def test_sampling_parts_equal_a_scalar_loop(p):
    """The chunked array draws take the same numbers from the stream as one
    scalar draw per part, then the remainder: 2^62 * 9001 shots are 4500
    full parts, drawn by two array calls, and a remainder of 2^62 + 4500."""
    L, Q, top = 2**62, 9001, 2**63 - 1
    full, rest = divmod(L * Q, top)
    assert full > dqc1._PARTS_PER_CALL and rest
    truth = 2.0 * p - 1.0
    rec = sample_expectations(truth, 0.0, L, Q, _seed(3), observables=("x",))
    rng = np.random.default_rng(_seed(3).spawn(1)[0])
    ups = sum(int(rng.binomial(top, p)) for _ in range(full))
    ups += int(rng.binomial(rest, p))
    assert rec.ex == (2 * ups - L * Q) / (L * Q)


def test_sampling_refuses_more_than_max_parts(monkeypatch):
    """A read of 2^20 full int64 parts is drawn; one part more is refused,
    by a message that names the limit, before any draw."""
    assert dqc1._MAX_PARTS == 2**20
    calls = []

    class Zeros:
        def binomial(self, n, p, size=None):
            calls.append(1 if size is None else size)
            return 0 if size is None else np.zeros(size, dtype=np.int64)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
    L = dqc1._INT64_MAX
    sample_expectations(0.3, -0.1, L, dqc1._MAX_PARTS, _seed(7), observables=("x",))
    assert sum(calls) == dqc1._MAX_PARTS
    calls.clear()
    with pytest.raises(ValueError, match=r"2\^20 int64 draws"):
        sample_expectations(0.3, -0.1, L, dqc1._MAX_PARTS + 1, _seed(7))
    assert calls == []


def test_sampling_memory_is_independent_of_queries():
    """A read of 10^12 queries is one draw: no array of Q counts."""
    tracemalloc.start()
    try:
        rec = sample_expectations(0.3, -0.1, 1000, 10**12, _seed(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert abs(rec.ex - 0.3) < 1e-6 and abs(rec.ey + 0.1) < 1e-6


def test_sampling_refuses_nan_truth():
    """NaN fails the [-1, 1] bound for each quadrature, read or not."""
    for truths in ((math.nan, 0.0), (0.0, math.nan)):
        for observables in (("x", "y"), ("x",), ("y",)):
            with pytest.raises(ValueError, match="sample_expectations"):
                sample_expectations(*truths, 10, 2, _seed(1), observables=observables)


def test_sampling_needs_a_stream():
    """The stream is the one source of the sampler's seed."""
    with pytest.raises(TypeError):
        sample_expectations(0.3, -0.1, 500, 3)


def test_sampling_single_observable():
    rec = sample_expectations(0.4, 0.9, 200, 2, _seed(3), observables=("x",))
    assert rec.ey == 0.0
    assert rec.se_y == 0.0
    assert rec.se_x > 0.0


def test_sampling_concentrates():
    """Estimates land within five reported standard errors of the truth."""
    truth = (0.35, -0.6)
    rec = sample_expectations(truth[0], truth[1], 4000, 5, _seed(11))
    assert abs(rec.ex - truth[0]) < 5 * rec.se_x
    assert abs(rec.ey - truth[1]) < 5 * rec.se_y


def test_sampling_error_shrinks_with_budget():
    small = sample_expectations(0.2, 0.0, 100, 1, _seed(2))
    large = sample_expectations(0.2, 0.0, 10000, 10, _seed(2))
    assert large.se_x < small.se_x


def test_sampling_y_only_matches_two_quadrature_read():
    """Each quadrature has its own stream: leaving x out does not move ey."""
    both = sample_expectations(0.4, -0.7, 300, 7, _seed(21))
    y_only = sample_expectations(0.4, -0.7, 300, 7, _seed(21), observables=("y",))
    assert y_only.ey == both.ey
    assert y_only.se_y == both.se_y
    assert y_only.ex == 0.0


def test_sampling_variance_matches_binomial():
    """Over fixed seeds the estimate is unbiased with variance (1-t^2)/(L Q)."""
    L, Q, truth = 50, 20, 0.3
    ex = np.array([
        sample_expectations(truth, 0.0, L, Q, _seed(k), observables=("x",)).ex
        for k in range(300)
    ])
    var = (1.0 - truth**2) / (L * Q)
    assert 0.7 <= ex.var(ddof=1) / var <= 1.3
    assert abs(ex.mean() - truth) < 4.0 * np.sqrt(var / ex.size)
