import math
import re
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1lpn import circuits, dqc1, infomeasures, lpn, noise
from dqc1lpn.dqc1 import (
    Dqc1Config,
    EstimateRecord,
    ShotStream,
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
    """Valid parameters, and numpy integers for the counts, are accepted;
    each refusal is a row of ``test_entry_points_name_the_parameter_they_refuse``."""
    Dqc1Config(n=2, alpha=0.5, p=0.1, theta=1.0)
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


def _shot_counts(draw):
    """L and Q of a read, each junk one draw in five; a valid Q keeps L*Q
    within int64, so that most reads reach the sampler, not its refusal."""
    L = draw(_mostly(st.integers(1, 2**63 - 1)))
    most = (2**63 - 1) // L if isinstance(L, int) and 1 <= L < 2**63 else 1
    return L, draw(_mostly(st.integers(1, most)))


def _sample(draw):
    truth = _mostly(st.floats(-1.0, 1.0))
    L, Q = _shot_counts(draw)
    return _finite(*sample_expectations(draw(truth), draw(truth), L, Q, ShotStream(0), 1))


def _budget(draw):
    budget = BudgetParams(
        draw(_mostly(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
        draw(_mostly(st.integers(1, 10**6))),
        draw(_mostly(st.booleans())),
    )
    n, threshold = draw(_mostly(st.integers(1, 10**4))), draw(_mostly(st.floats(0.0, 1.0)))
    queries = query_budget(budget, n, threshold)
    return isinstance(queries, int) and queries >= 1 and isinstance(budget.per_bit_delta, bool)


def _decide(draw):
    record = EstimateRecord(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), 0.0, 0.0)
    threshold = draw(_mostly(st.floats(0.0, 2.0), st.none() | st.text(max_size=4) | st.floats()))
    return lpn.decide_bit(record, threshold) in (0, 1)


#: _VALUES without the huge ints, for qubit indices: code that shifted a
#: qubit into a mask before checking its range would allocate a mask of
#: that many bits
_SMALL_VALUES = st.one_of(st.integers(-3, 70), st.floats(), st.text(max_size=4), st.none())

#: What a caller may pass as a query's observables besides the quadratures
_NOT_OBSERVABLES = st.one_of(
    st.tuples(st.text(max_size=2)), st.text(max_size=2), st.none(), st.integers(-3, 3),
    st.sampled_from([(), "", "xy"]), st.builds(iter, st.lists(st.sampled_from("xy"), max_size=2)),
)


def _qubit_junk(n):
    """What may stand where a qubit 1..n belongs: floats within the register,
    which ``int`` would truncate to a qubit, or _SMALL_VALUES."""
    return st.floats(1.0, n) | _SMALL_VALUES


def _bits(draw, n):
    return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


#: Items of a list that are no bit: a value other than 0 and 1, or one that
#: a cast to an integer would truncate or parse into a bit
_NOT_A_BIT = st.sampled_from([2, 0.5, 1.7, -1, None, "a", "1"])


def _pattern(draw, n):
    """n bits as a 0/1 list, or one draw in three as a 0/1 string, a list
    with one item that is no bit, None or a bare number."""
    bits, kind = _bits(draw, n), draw(st.integers(0, 8))
    if kind == 6:
        return "".join(map(str, bits))
    if kind == 7:
        bits[draw(st.integers(0, n - 1))] = draw(_NOT_A_BIT)
    if kind == 8:
        return draw(st.none() | st.integers(-3, 3) | st.floats())
    return bits


def _pattern_mask(pattern):
    """The int bitmask of a pattern from ``_pattern``, or None where it is no
    bit pattern: a caller that took it read junk as bits."""
    if isinstance(pattern, str):
        pattern = [int(c) for c in pattern]
    if not isinstance(pattern, list) or not all(type(v) is int and 0 <= v <= 1 for v in pattern):
        return None
    return sum(v << k for k, v in enumerate(pattern))


def _as_bits(draw):
    n = draw(st.integers(1, 70))
    pattern = _pattern(draw, n)
    return circuits.ones_mask(circuits.as_bits(pattern)) == _pattern_mask(pattern)


def _ones_mask(draw):
    n = draw(st.integers(1, 70))
    pattern = _pattern(draw, n)
    return circuits.ones_mask(pattern) == _pattern_mask(pattern)


def _closed_config(n):
    return Dqc1Config(n=n, alpha=0.8, p=0.1, theta=1.0, backend="closed")


def _oracle_0110():
    return lpn.make_oracle("0110", _closed_config(4))


def _plan(cfg=None, **caps):
    """``lpn.plan`` for `cfg` (by default that of ``_oracle_0110``)."""
    return partial(lpn.plan, cfg or _closed_config(4), BudgetParams(0.1, 10), **caps)


def _learn_0110(cfg=None, **caps):
    """A run of ``_oracle_0110`` on the plan ``_plan(cfg, **caps)`` builds."""
    return lpn.learn(_oracle_0110(), _plan(cfg, **caps)(), 10)


def _query(draw, backend, top):
    """One query of the `backend` oracle over at most `top` qubits."""
    n = draw(st.integers(1, top))
    cfg = Dqc1Config(n=n, alpha=0.8, p=0.1, theta=1.0, backend=backend, seed=3)
    pattern = _pattern(draw, n)
    oracle = lpn.make_oracle(pattern, cfg)
    j = draw(_mostly(st.integers(1, n)))
    below = j - 1 if isinstance(j, int) and 1 <= j <= n else n
    counts = (j, draw(_mostly(st.integers(0, 2**below - 1))), *_shot_counts(draw))
    observables = draw(_mostly(st.sampled_from([("x", "y"), ("x",), ("y",)]), _NOT_OBSERVABLES))
    record = oracle(*counts, observables)
    return _finite(*record) and _ints(*counts) and _pattern_mask(pattern) is not None


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
    budget = BudgetParams(0.1, 100)
    try:
        pairs = lpn.plan(cfg, budget, fixed_queries=fixed, max_queries=most)
    except lpn.BudgetExhaustedError:
        return True
    result = lpn.learn(oracle, pairs, budget.L)
    return all(_ints(step.queries) and 1 <= step.queries <= most for step in result.steps)


def _phase_flips(draw):
    n = draw(st.integers(1, 8))
    flips = draw(_mostly(
        st.lists(_mostly(st.integers(1, n), _qubit_junk(n)), max_size=3), _SMALL_VALUES
    ))
    with warnings.catch_warnings():
        # a flip on an uncoupled qubit warns
        warnings.simplefilter("ignore")
        record = noise.phase_flip_parity_experiment(_bits(draw, n), _closed_config(n), flips)
    return _finite(*record) and _ints(*flips)


def _closed_form_tau(draw):
    n = draw(st.integers(1, 8))
    j = draw(_mostly(st.integers(1, n)))
    decoupled = draw(_mostly(
        st.lists(_mostly(st.integers(1, n), _qubit_junk(n)), max_size=3), _SMALL_VALUES
    ))
    theta = draw(_mostly(st.floats(-10.0, 10.0)))
    tau = lpn.closed_form_tau(_bits(draw, n), theta, j, decoupled=decoupled)
    return _finite(tau.real, tau.imag) and _ints(*decoupled)


def _protocol_discord(draw):
    n = draw(st.integers(1, 8))
    theta = draw(st.sampled_from([0.3, 1.0, math.pi / 2, 2.4]))
    pattern = _pattern(draw, n)
    block = circuits.StepBlock.from_bits(pattern, theta, draw(st.integers(1, n)))
    discord = infomeasures.protocol_discord(block, draw(_mostly(st.floats(0.0, 1.0)))).discord
    return _finite(discord) and block.flips == _pattern_mask(pattern)


def _coherence(draw):
    unit = _mostly(st.floats(0.0, 1.0))
    return _finite(infomeasures.coherence_consumption(draw(unit), draw(unit)))


def _midcircuit(draw):
    n = draw(st.integers(1, 8))
    q_grid = draw(_mostly(st.lists(_mostly(st.floats(0.0, 0.2)), max_size=3), _SMALL_VALUES))
    return _finite(*noise.midcircuit_noise_sweep(_bits(draw, n), _closed_config(n), q_grid))


def _systematic(draw):
    n = draw(st.integers(1, 8))
    grid = _mostly(st.lists(_mostly(st.floats(-4.0, 4.0)), max_size=3), _SMALL_VALUES)
    taus = noise.systematic_error_sweep(_bits(draw, n), draw(grid), draw(grid))
    return _finite(*(part for tau in taus for part in (tau.real, tau.imag)))


@pytest.mark.parametrize("call", [
    _config, _block, _record, _sample, _budget, _decide, _as_bits, _ones_mask, _oracle_closed,
    _oracle_sampled, _oracle_dense, _learn, _phase_flips, _closed_form_tau, _protocol_discord,
    _coherence, _midcircuit, _systematic,
])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_library_entry_points_refuse_with_value_error(call, data):
    """Each entry point, given any mix of ints, huge ints, floats (NaN and
    inf among them), strings and None, raises ValueError or returns finite
    values, having taken only integers where a count, mask or qubit
    belongs, a collection where one belongs, and only a 0/1 pattern, read
    as a list reads, where a bit pattern belongs; ``plan`` may also run out
    of budget, and the steps of ``learn`` spend an integer count of queries
    within it."""
    try:
        finite = call(data.draw)
    except ValueError:
        return
    assert finite


def _refusal(id, call, name, message=None):
    """A row of ``test_entry_points_name_the_parameter_they_refuse``: `call`
    raises ValueError with `name` as a word of its message, which matches
    the pattern `message` where one is given."""
    return pytest.param(call, name, message, id=id)


def _config_with(**fields):
    return partial(Dqc1Config, **{"n": 2, "alpha": 0.5, "p": 0.0, "theta": 1.0, **fields})


@pytest.mark.parametrize(
    "call,name,message",
    [
        _refusal("block-n", lambda: circuits.StepBlock(1.0, 2.5, 0, 0), "n"),
        _refusal("block-mask", lambda: circuits.StepBlock(1.0, 2, 1.5, 0), "rotated"),
        _refusal("sample-L", lambda: sample_expectations(0.5, 0.5, 10.5, 3, ShotStream(0), 1),
                 "L"),
        _refusal("sample-Q", lambda: sample_expectations(0.5, 0.5, 10, 3.5, ShotStream(0), 1),
                 "Q"),
        # one binomial draw takes at most 2^63 - 1 shots; two numpy int64
        # counts wrapped their product past it
        *(_refusal(f"sample-shots-{id}",
                   partial(sample_expectations, 0.5, 0.5, L, Q, ShotStream(0), 1),
                   "L", r"a read of L\*Q shots exceeds 2\^63 - 1")
          for id, L, Q in (("2^62x2", 2**62, 2), ("2^63x1", 2**63, 1),
                           ("numpy-2^62x2", np.int64(2**62), np.int64(2)))),
        # Philox itself took None as a key from OS entropy, and 1.5 as 1
        *(_refusal(f"stream-seed-{id}", partial(ShotStream, seed), "seed", message)
          for id, seed, message in (("none", None, "must be an integer"),
                                    ("float", 1.5, "must be an integer"),
                                    ("2^64", 2**64, "fit in 64 bits"),
                                    ("negative", -1, "fit in 64 bits"))),
        # j is a word of the generator's counter
        *(_refusal(f"sample-j-{id}",
                   partial(sample_expectations, 0.5, 0.5, 10, 3, ShotStream(0), j), "j", message)
          for id, j, message in (("float", 1.0, "must be an integer"),
                                 ("negative", -1, r"0\.\.2\^64 - 1"),
                                 ("2^64", 2**64, r"0\.\.2\^64 - 1"))),
        _refusal("config-alpha", _config_with(alpha="0.5"), "alpha"),
        _refusal("config-theta", _config_with(theta="1"), "theta"),
        _refusal("config-n-negative", _config_with(n=-1), "n"),
        _refusal("config-alpha-above-one", _config_with(alpha=1.5), "alpha"),
        _refusal("config-p-one", _config_with(p=1.0), "p"),
        _refusal("config-p-str", _config_with(p="0.1"), "p", "must be a real number"),
        _refusal("config-backend", _config_with(backend="magic"), "backend"),
        # a non-finite angle gave NaN thresholds and a wrong s_hat, without an error
        *(_refusal(f"config-theta-{t}", _config_with(theta=t, backend="closed"), "theta",
                   "not finite") for t in (math.nan, math.inf, -math.inf)),
        # counts and seeds are integers: an infinite seed raised OverflowError,
        # and a fractional n or seed was accepted
        *(_refusal(f"config-{key}-{v}", _config_with(**{key: v}), key, "must be an integer")
          for key, v in (("seed", math.inf), ("seed", 1.5), ("n", 2.5), ("n", 2.0))),
        _refusal("budget-delta", lambda: BudgetParams("0.1", 10), "delta"),
        *(_refusal(f"budget-delta-{d}", partial(BudgetParams, delta=d, L=10), "delta")
          for d in (0.0, 1.0, math.nan)),
        # L is a shot count: NaN was accepted, and L = 1.5 planned 454 queries
        *(_refusal(f"budget-L-{L}", partial(BudgetParams, delta=0.01, L=L), "L",
                   "L must be " + ("positive" if isinstance(L, int) else "an integer"))
          for L in (math.nan, math.inf, 1.5, 2.0, 0, -1)),
        _refusal("record", lambda: EstimateRecord("a", 0.0, 0.0, 0.0), "estimates"),
        _refusal("budget-n", lambda: query_budget(BudgetParams(0.1, 10), 2.5, 0.1), "n"),
        _refusal("budget-threshold", partial(query_budget, BudgetParams(0.1, 10), 4, "0.1"),
                 "threshold", "must be a real number"),
        _refusal("oracle-j", lambda: _oracle_0110()(1.0), "j"),
        _refusal("oracle-mask", lambda: _oracle_0110()(2, 0.5), "corrections"),
        _refusal("oracle-ensemble", lambda: _oracle_0110()(1, 0, 1.5, 1), "ensemble",
                 "ensemble must be an integer"),
        _refusal("oracle-queries", lambda: _oracle_0110()(1, 0, 1, 1.5), "queries"),
        _refusal("oracle-observables", lambda: _oracle_0110()(1, 0, 1, 1, ("z",)), "observables"),
        _refusal("learn-fixed", lambda: _learn_0110(fixed_queries=1.5), "fixed_queries"),
        _refusal("learn-max-nan", lambda: _learn_0110(max_queries=float("nan")), "max_queries"),
        _refusal("learn-max-half", lambda: _learn_0110(max_queries=0.5), "max_queries"),
        _refusal("learn-n-zero", lambda: _learn_0110(_closed_config(0)), "n", "nothing to learn"),
        # plan raises every refusal of a run before its first query
        _refusal("plan-fixed", _plan(fixed_queries=1.5), "fixed_queries", "must be an integer"),
        _refusal("plan-fixed-zero", _plan(fixed_queries=0), "fixed_queries", "at least 1"),
        _refusal("plan-max-nan", _plan(max_queries=math.nan), "max_queries"),
        _refusal("plan-max-half", _plan(max_queries=0.5), "max_queries"),
        _refusal("plan-max-zero", _plan(max_queries=0), "max_queries", "at least 1"),
        *(_refusal(f"plan-alpha-zero{id}", _plan(_config_with(alpha=0.0)(), fixed_queries=f),
                   "alpha", r"alpha must lie in \(0, 1\]")
          for id, f in (("", None), ("-fixed", 5))),
        _refusal("plan-n-zero", _plan(_closed_config(0)), "n", "nothing to learn"),
        *(_refusal(f"plan-theta-{id}", _plan(_config_with(theta=theta)()), "angle",
                   "multiples of pi")
          for id, theta in (("0", 0.0), ("pi", math.pi), ("2pi", 2 * math.pi))),
        # sin(1/2)^2099 is far below 2^-1022, and an n - 1 of 10^400 is past float range
        *(_refusal(f"plan-threshold-{id}", _plan(_closed_config(n)), "threshold",
                   r"the threshold of bit 1 is below 2\^-1022")
          for id, n in (("2100", 2100), ("10^400", 10**400))),
        _refusal("flip-set", partial(noise.phase_flip_parity_experiment, "0110",
                                     _closed_config(4), [2.7]), "flip_set"),
        _refusal("tau-decoupled", lambda: lpn.closed_form_tau("0110", 1.0, 3, decoupled=[1.7]),
                 "decoupled"),
        # a probe index outside 1..n, a decoupled probe, a decoupled qubit past n
        _refusal("tau-j-zero", partial(lpn.closed_form_tau, "011", 1.0, 0), "probe index"),
        _refusal("tau-j-past-n", partial(lpn.closed_form_tau, "011", 1.0, 4), "probe index"),
        _refusal("tau-probe-decoupled", partial(lpn.closed_form_tau, "011", 1.0, 2, (2,)),
                 "decoupled"),
        _refusal("tau-decoupled-past-n", partial(lpn.closed_form_tau, "011", 1.0, 1, (5,)),
                 "decoupled", "outside 1..3"),
        # the masks of a block read from bits are integers
        _refusal("from-bits-decoupled",
                 partial(circuits.StepBlock.from_bits, "0110", 1.0, 1, 1.5), "decoupled",
                 "must be an integer"),
        _refusal("from-bits-corrections",
                 partial(circuits.StepBlock.from_bits, "0110", 1.0, 1, 2, 0.5), "corrections",
                 "must be an integer"),
        _refusal("discord-alpha", lambda: infomeasures.protocol_discord(
            circuits.StepBlock.from_bits([0, 1, 1, 0], 1.0, 1), "0.5"), "alpha"),
        _refusal("coherence-alpha", lambda: infomeasures.coherence_consumption(None, 0.5),
                 "alpha"),
        _refusal("entropy-x", lambda: infomeasures.binary_entropy("0.5"), "x"),
        _refusal("midcircuit-q",
                 lambda: noise.midcircuit_noise_sweep("0110", _closed_config(4), ["0.1"]), "q"),
        _refusal("midcircuit-none",
                 lambda: noise.midcircuit_noise_sweep("0110", _closed_config(4), None), "q_grid"),
        _refusal("midcircuit-length", partial(noise.midcircuit_noise_sweep, "011",
                                              _closed_config(4), [0.1]), "bits", "got 3"),
        _refusal("flip-set-none", partial(noise.phase_flip_parity_experiment, "0110",
                                          _closed_config(4), None), "flip_set"),
        _refusal("systematic-phi-none",
                 lambda: noise.systematic_error_sweep("0110", None, [1.0]), "phi_grid"),
        _refusal("systematic-theta-str",
                 lambda: noise.systematic_error_sweep("0110", [0.0], "1.0"), "theta_grid"),
        _refusal("tau-decoupled-none",
                 lambda: lpn.closed_form_tau("0110", 1.0, 3, decoupled=None), "decoupled"),
        _refusal("decide-none",
                 lambda: lpn.decide_bit(EstimateRecord(0.1, 0.0, 0.0, 0.0), None), "threshold"),
        _refusal("decide-str",
                 lambda: lpn.decide_bit(EstimateRecord(0.1, 0.0, 0.0, 0.0), "0.1"), "threshold"),
        # 0, and NaN (decided 0) and an infinity (decided 1): none is a threshold
        *(_refusal(f"decide-{t}", partial(lpn.decide_bit, EstimateRecord(0.3, 0, 0, 0), t),
                   "threshold", "positive and finite")
          for t in (0.0, math.nan, math.inf, -math.inf)),
        _refusal("budget-per-bit", lambda: BudgetParams(0.1, 10, per_bit_delta="yes"),
                 "per_bit_delta"),
    ],
)
def test_entry_points_name_the_parameter_they_refuse(call, name, message):
    """A count that is not an integer, or a number that is a string, was a
    TypeError (or, for the budget's n, a silent 65 queries); the oracle took
    1.5 queries and an unknown observable, ``learn`` 1.5 queries per bit and
    a cap of NaN, and a flipped qubit of 2.7 was qubit 2.  A collection that
    is None and a threshold that is None or a string were a TypeError, and
    a per_bit_delta of "yes" was taken as true."""
    with pytest.raises(ValueError, match=rf"\b{name}\b") as refused:
        call()
    assert message is None or re.search(message, str(refused.value))


@pytest.mark.parametrize(
    "observables", [("z",), None, 3, ("x", "z"), (), "", "xy", iter(["x", "y"])]
)
def test_quadratures_are_refused_with_one_message(observables):
    """The oracle of every backend and ``sample_expectations`` refuse what is
    not a nonempty collection of the quadratures, by one message: None was a
    TypeError there, and ``sample_expectations`` echoed the input.  (), ""
    and an iterator, which issuperset used up, read neither quadrature, a
    record of zeros that ``decide_bit`` took for a 1 bit, and "xy" read
    both."""
    messages = set()
    for backend in dqc1.BACKENDS:
        cfg = Dqc1Config(n=4, alpha=0.8, p=0.1, theta=1.0, backend=backend)
        with pytest.raises(ValueError) as refused:
            lpn.make_oracle("0110", cfg)(1, 0, 10, 1, observables)
        messages.add(str(refused.value))
    with pytest.raises(ValueError) as refused:
        sample_expectations(0.5, 0.5, 10, 1, ShotStream(0), 1, observables=observables)
    messages.add(str(refused.value))
    assert messages == {'observables must be a collection of "x" and "y"'}


def test_sampling_is_seed_deterministic():
    a = sample_expectations(0.3, -0.1, 500, 3, ShotStream(7), 1)
    b = sample_expectations(0.3, -0.1, 500, 3, ShotStream(7), 1)
    assert a == b
    c = sample_expectations(0.3, -0.1, 500, 3, ShotStream(8), 1)
    assert c != a


def _fresh_count(seed, j, k, shots, truth):
    """Read k of bit j as a fresh generator started at its counter draws it."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, k, j]))
    return int(gen.binomial(shots, (1.0 + truth) / 2.0))


def test_sampled_oracle_reads_each_bit_at_its_philox_counter():
    """The sampled oracle's count for read k of bit j is the first binomial
    draw of a fresh Philox keyed by the seed at counter (0, 0, k, j), the
    closed oracle's truth its mean, whatever was read before it: the calls
    go in two orders, through one oracle each, up to 2^63 - 1 shots.  Bit n,
    with qubit 2 corrected, reads alpha (1-p) on one quadrature; bit 2 reads
    0, and bit 1 about 7e-117, behind 2041 rotated qubits."""
    n = 2042
    s = "01" + "0" * (n - 2)
    cfg = {"n": n, "alpha": 0.8, "p": 0.1, "theta": 1.0}
    truths = lpn.make_oracle(s, Dqc1Config(**cfg, backend="closed"))
    calls = [(j, L, Q) for j in (1, 2, n) for L, Q in ((500, 3), (2**63 - 1, 1))]
    for seed in (0, 1, 2**64 - 1):
        for order in (calls, calls[::-1]):
            oracle = lpn.make_oracle(s, Dqc1Config(**cfg, backend="sampled", seed=seed))
            for j, L, Q in order:
                corrections = 0b10 if j > 2 else 0
                record, truth = oracle(j, corrections, L, Q), truths(j, corrections)
                shots = L * Q
                for k in (0, 1):
                    ups = _fresh_count(seed, j, k, shots, truth[k])
                    assert record[k] == (2 * ups - shots) / shots, (seed, j, k, shots)


def test_sampled_oracles_of_one_seed_agree():
    """Two oracles of one seed in one process give equal records, read in
    turn: each owns its generator, and no module-level state is shared."""
    cfg = Dqc1Config(n=6, alpha=0.7, p=0.2, theta=1.3, backend="sampled", seed=11)
    first, second = lpn.make_oracle("011010", cfg), lpn.make_oracle("011010", cfg)
    for j in (3, 1, 6, 1):
        assert first(j, 0, 200, 4) == second(j, 0, 200, 4)
    assert first(2, 1, 200, 4, ("y",)).ey == second(2, 1, 200, 4).ey


def test_shot_stream_draws_stay_keyed_across_threads():
    """Threads sharing one stream, more of them than cores and switching
    every microsecond, each get the count of their own counter: setting the
    counter and drawing from it is one step, so no thread draws from a
    counter another thread set."""
    stream, shots = ShotStream(5), 10**6
    results = {}

    def reader(j):
        results[j] = [stream.binomial(j, 1, shots, 0.5) for _ in range(50)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(j,)) for j in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for j in range(1, 9):
        assert results[j] == [_fresh_count(5, j, 1, shots, 0.0)] * 50, j


def test_sampling_memory_is_independent_of_queries():
    """A read of 10^12 queries is one draw: no array of Q counts."""
    tracemalloc.start()
    try:
        rec = sample_expectations(0.3, -0.1, 1000, 10**12, ShotStream(7), 1)
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
                sample_expectations(*truths, 10, 2, ShotStream(1), 1, observables=observables)


def test_sampling_needs_a_stream():
    """The stream and the bit index j are the one source of the sampler's
    randomness: there is no default stream and no module-level generator."""
    with pytest.raises(TypeError):
        sample_expectations(0.3, -0.1, 500, 3)


def test_sampling_single_observable():
    rec = sample_expectations(0.4, 0.9, 200, 2, ShotStream(3), 1, observables=("x",))
    assert rec.ey == 0.0
    assert rec.se_y == 0.0
    assert rec.se_x > 0.0


def test_sampling_concentrates():
    """Estimates land within five reported standard errors of the truth."""
    truth = (0.35, -0.6)
    rec = sample_expectations(truth[0], truth[1], 4000, 5, ShotStream(11), 1)
    assert abs(rec.ex - truth[0]) < 5 * rec.se_x
    assert abs(rec.ey - truth[1]) < 5 * rec.se_y


def test_sampling_error_shrinks_with_budget():
    small = sample_expectations(0.2, 0.0, 100, 1, ShotStream(2), 1)
    large = sample_expectations(0.2, 0.0, 10000, 10, ShotStream(2), 1)
    assert large.se_x < small.se_x


def test_sampling_y_only_matches_two_quadrature_read():
    """Each quadrature has its own stream: leaving x out does not move ey."""
    both = sample_expectations(0.4, -0.7, 300, 7, ShotStream(21), 1)
    y_only = sample_expectations(0.4, -0.7, 300, 7, ShotStream(21), 1, observables=("y",))
    assert y_only.ey == both.ey
    assert y_only.se_y == both.se_y
    assert y_only.ex == 0.0


def test_sampling_variance_matches_binomial():
    """Over fixed seeds the estimate is unbiased with variance (1-t^2)/(L Q)."""
    L, Q, truth = 50, 20, 0.3
    ex = np.array([
        sample_expectations(truth, 0.0, L, Q, ShotStream(k), 1, observables=("x",)).ex
        for k in range(300)
    ])
    var = (1.0 - truth**2) / (L * Q)
    assert 0.7 <= ex.var(ddof=1) / var <= 1.3
    assert abs(ex.mean() - truth) < 4.0 * np.sqrt(var / ex.size)
