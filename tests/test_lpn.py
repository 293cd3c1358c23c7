import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqc1lpn.circuits import StepBlock, as_bits, bits_to_str, mask_kinds
from dqc1lpn.dqc1 import Dqc1Config, EstimateRecord, expectations_from_tau
from dqc1lpn.lpn import (
    HOEFFDING_C,
    BudgetExhaustedError,
    BudgetParams,
    LearnStep,
    _gap_factor,
    closed_form_tau,
    decide_bit,
    learn,
    make_oracle,
    plan,
    query_budget,
)

from conftest import all_bitstrings, qubit_mask, reference_tau

HALF_PI = math.pi / 2


def _budget(L=1000):
    return BudgetParams(delta=0.01, L=L)


def _cfg(n, alpha=1.0, p=0.0):
    return Dqc1Config(n=n, alpha=alpha, p=p, theta=HALF_PI, backend="dense")


#: A cap on queries above any count that a normal threshold needs.
_NO_CAP = 2**4096


def _bit_budget(budget, cfg, j):
    """The budget of bit j, sized from the threshold ``learn`` compares with."""
    return plan(cfg, budget, max_queries=_NO_CAP)[j - 1][1]


def _least_count(budget, n, threshold):
    """The least integer Q with Q L T^2 >= C ln(1/delta'), in exact
    fractions, with ln(1/delta') the float that ``query_budget`` takes."""
    spread = 0.0 if budget.per_bit_delta else math.log(n)
    need = Fraction(HOEFFDING_C * (spread - math.log(budget.delta)))
    return math.ceil(need / (budget.L * Fraction(threshold) ** 2))


def test_closed_form_tau_known_value():
    # s=011, probe j=1: two coupled rotations give (i/sqrt2)^2 = -1/2
    tau = closed_form_tau(as_bits("011"), HALF_PI, 1)
    assert tau == pytest.approx(-0.5, abs=1e-15)


def test_closed_form_tau_zero_iff_probed_bit_set():
    for n in range(1, 5):
        for bits in all_bitstrings(n):
            for j in range(1, n + 1):
                tau = closed_form_tau(bits, 1.1, j)
                if bits[j - 1]:
                    assert tau == 0
                else:
                    assert abs(tau) > 1e-3


def test_closed_form_tau_matches_dense_reference():
    theta = 2.2
    for n in range(1, 5):
        for bits in all_bitstrings(n):
            for j in range(1, n + 1):
                rotated = set(range(1, n + 1)) - {j}
                ref = reference_tau(bits, theta, rotated)
                assert abs(closed_form_tau(bits, theta, j) - ref) < 1e-12


def test_closed_form_tau_decoupled_prefix():
    # s=011, j=3 with qubits 1,2 decoupled: only the j factor remains
    tau = closed_form_tau(as_bits("011"), HALF_PI, 3, decoupled=(1, 2))
    assert tau == 0.0
    tau0 = closed_form_tau(as_bits("010"), HALF_PI, 3, decoupled=(1, 2))
    assert tau0 == pytest.approx(1.0, abs=1e-15)


def test_decide_bit_threshold():
    rec = EstimateRecord(ex=0.3, ey=0.0, se_x=0.0, se_y=0.0)
    assert decide_bit(rec, 0.2) == 0
    assert decide_bit(rec, 0.4) == 1


@given(
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=1e-6, max_value=2),
)
def test_decide_bit_is_indicator(ex, ey, threshold):
    """A 1 exactly when the larger quadrature is below the threshold."""
    rec = EstimateRecord(ex=ex, ey=ey, se_x=0.0, se_y=0.0)
    assert decide_bit(rec, threshold) == int(max(abs(ex), abs(ey)) < threshold)


def _all_ones_bit_failure(shots: int, threshold: float) -> float:
    """The exact probability that ``decide_bit`` reports 0 for a bit whose
    two quadratures each read a truth of 0: independent Binomial(shots, 1/2)
    up-counts u and v, read as (2u - shots) / shots as the sampler does.
    The estimates are symmetric about 0, so each |reading| is one of the
    distances d = |2u - shots|; for each distance of x, bisect the largest
    distance of y that the rule accepts (it is monotone in |ey|) and sum
    the probability of every distance up to it."""
    pmf = scipy.stats.binom.pmf(np.arange(shots + 1), shots, 0.5)
    # P(|2u - shots| = d) for d = shots % 2, shots % 2 + 2, ..., shots
    half = pmf[: shots // 2 + 1][::-1]
    mass = half + pmf[(shots + 1) // 2:]
    if shots % 2 == 0:
        mass[0] = pmf[shots // 2]
    distances = np.arange(shots % 2, shots + 1, 2)
    below = np.cumsum(mass)
    accepted = 0.0
    for dx, px in zip(distances.tolist(), mass.tolist()):
        ex = dx / shots
        lo, hi = -1, distances.size - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            record = EstimateRecord(ex, distances[mid] / shots, 0.0, 0.0)
            if decide_bit(record, threshold):
                lo = mid
            else:
                hi = mid - 1
        if lo >= 0:
            accepted += px * below[lo]
    return 1.0 - accepted


@pytest.mark.parametrize("per_bit_delta", [False, True])
@pytest.mark.parametrize(
    "n,L,delta", [(3, 1, 0.3), (6, 1, 0.2), (5, 20, 0.05), (5, 20, 0.1), (8, 20, 0.05)]
)
def test_all_ones_failure_is_at_most_delta(n, L, delta, per_bit_delta):
    """The delta promise for the all-ones string, the worst string at each
    point, computed exactly.  Every bit reads both quadratures with truth 0
    (its prefix is decided right and corrected), so bits fail independently,
    each with the exact failure of ``decide_bit`` at its threshold and
    L * queries shots, both taken from ``plan``.  A sum |ex| + |ey| failed
    0.25-0.57 of these runs."""
    cfg = Dqc1Config(n=n, alpha=1.0, p=0.0, theta=HALF_PI)
    budget = BudgetParams(delta=delta, L=L, per_bit_delta=per_bit_delta)
    failures = [_all_ones_bit_failure(L * queries, t) for t, queries in plan(cfg, budget)]
    if per_bit_delta:
        assert max(failures) <= delta, failures
    else:
        run_failure = 1.0 - math.prod(1.0 - f for f in failures)
        assert run_failure <= delta, run_failure


def test_query_budget_monotone_in_tail():
    b = _budget(L=1)
    values = [_bit_budget(b, _cfg(n), 1) for n in (2, 4, 8, 12)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_query_budget_diverges_with_readout_noise():
    qs = [_bit_budget(_budget(L=100), _cfg(4, p=p), 1) for p in (0.0, 0.9, 0.99)]
    assert qs[0] < qs[1] < qs[2]


def test_query_budget_efficiency_frontier():
    big_l = _budget(L=10**22)
    assert all(_bit_budget(big_l, _cfg(66), j) == 1 for j in (1, 33, 66))
    assert _bit_budget(big_l, _cfg(120), 1) > 10**6


@pytest.mark.parametrize(
    "n,j,alpha,L,delta,theta,expected",
    [
        # T = 2^-750.5, whose square underflows a float:
        # 2 ln(1500 / 0.01) 2^1501 = 2^1505.58 queries
        pytest.param(1500, 1, 1.0, 1, 0.01, HALF_PI, 1505.5751, id="overflow"),
        # T = 5e-4 2^-510.5 fits, the quotient by its square would not
        pytest.param(1022, 1, 1e-3, 1, 0.01, HALF_PI, None, id="nonfinite"),
        # 1/delta' would overflow: 2 ln(4e320) 4 2^3 / 1000 = 47.2
        pytest.param(4, 1, 1.0, 1000, 1e-320, HALF_PI, 48, id="subnormal-delta"),
        # delta/n would underflow to 0: 2 ln(4 / 5e-324) 4 2^3 / 1000 = 47.7
        pytest.param(4, 1, 1.0, 1000, 5e-324, HALF_PI, 48, id="zero-delta-share"),
        # T = 1e-170 2^-2.5, whose square underflows to 0: 2^1128.07 queries
        pytest.param(4, 1, 1e-170, 1000, 0.01, HALF_PI, 1128.0727, id="underflowed-scale"),
        # the same at theta = 1: each of the 3 trailing qubits costs
        # -2 log2 sin(1/2) = 2.121 bits, not 1, so 2^(1128.07 - 3 + 6.36)
        # = 2^1131.44 queries
        pytest.param(
            4, 1, 1e-170, 1000, 0.01, 1.0, 1131.4364, id="underflowed-scale-theta1"
        ),
        # float(L) would overflow: 2^-1320.2, which counts as 1
        pytest.param(4, 1, 1.0, 10**400, 0.01, HALF_PI, 1, id="overflowed-scale"),
        # ... and with T = 2^-1000.5, whose square would underflow,
        # 2 ln(2000 / 0.01) 2^2001 / 10^400 = 2^676.84 queries
        pytest.param(
            2000, 1, 1.0, 10**400, 0.01, HALF_PI, 676.8383, id="overflowed-scale-deep-gap"
        ),
        # or 2^-1316.3 for L = 10^1000, which counts as 1
        pytest.param(2000, 1, 1.0, 10**1000, 0.01, HALF_PI, 1, id="overflowed-scale-deep-gap-1"),
    ],
)
def test_query_budget_least_count_past_float_range(n, j, alpha, L, delta, theta, expected):
    """Inputs past float range, where a float quotient would overflow or
    underflow, still give the least count: an int, and a float `expected`
    is its log2 to four places."""
    budget = BudgetParams(delta=delta, L=L)
    # the threshold that ``learn`` sizes bit j for, at p = 0
    cfg = Dqc1Config(n=n, alpha=alpha, p=0.0, theta=theta)
    threshold, q = plan(cfg, budget, max_queries=_NO_CAP)[j - 1]
    assert q == query_budget(budget, n, threshold)
    assert isinstance(q, int)
    assert q == _least_count(budget, n, threshold)
    if expected is None:
        assert q > 10**300
    elif isinstance(expected, int):
        assert q == expected
    else:
        assert round(math.log2(q), 4) == expected


@pytest.mark.parametrize("theta", [0.6, 1.0, 2.4, HALF_PI])
@pytest.mark.parametrize(
    "n,alpha,p,L,delta,per_bit_delta",
    [
        (5, 1.0, 0.0, 20, 0.05, False),
        (12, 0.8, 0.2, 1000, 0.01, False),
        (4, 0.7, 0.2, 20, 0.05, True),
        (9, 0.1, 0.5, 1, 0.3, False),
    ],
)
def test_budget_meets_the_threshold_learn_uses(theta, n, alpha, p, L, delta, per_bit_delta):
    """Every bit's queries meet the Hoeffding count for the threshold T that
    ``learn`` compares against, off theta = pi/2 too: N L T^2 is at least
    C ln(1/delta'), up to the rounding of T."""
    budget = BudgetParams(delta=delta, L=L, per_bit_delta=per_bit_delta)
    cfg = Dqc1Config(n=n, alpha=alpha, p=p, theta=theta, backend="closed")
    bits = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
    res = learn(make_oracle(bits, cfg), plan(cfg, budget, max_queries=10**30), L)
    assert np.array_equal(res.s_hat, bits)
    share = delta if per_bit_delta else delta / n
    need = HOEFFDING_C * math.log(1.0 / share) * (1 - 1e-12)
    for step in res.steps:
        assert step.queries * L * step.threshold**2 >= need, step.j


def test_query_budget_per_bit_delta_needs_less():
    shared = BudgetParams(delta=0.01, L=1)
    per_bit = BudgetParams(delta=0.01, L=1, per_bit_delta=True)
    assert _bit_budget(per_bit, _cfg(10), 1) <= _bit_budget(shared, _cfg(10), 1)


def test_query_budget_refuses_unpolarized_probe():
    """An unpolarized probe (alpha = 0) gives a threshold of 0.0, and a deep
    gap a subnormal one; the budget refuses these, a negative T and NaN."""
    for threshold in (0.0, -0.25, math.nan, 2.0**-1030):
        with pytest.raises(ValueError, match=r"at least 2\^-1022"):
            query_budget(_budget(), 4, threshold)


def test_budget_params_validation():
    """L is a shot count of any integer type and size; each refusal is a
    row of ``test_entry_points_name_the_parameter_they_refuse``."""
    BudgetParams(delta=0.01, L=np.int64(10))
    assert BudgetParams(delta=0.01, L=10**400).L == 10**400


def test_query_budget_refuses_fewer_than_one_bit():
    """delta has no bits to be split over; a ZeroDivisionError or a math
    domain error would not say so."""
    for n in (0, -3):
        with pytest.raises(ValueError, match="n < 1"):
            query_budget(_budget(), n, 0.25)


def test_query_budget_past_float_range_of_bits():
    """delta / n once raised OverflowError for an n past float range; the
    share's log is ln n - ln delta: 2 (ln 10^400 - ln 0.1) / (10 * 0.25^2)."""
    need = HOEFFDING_C * (400 * math.log(10) - math.log(0.1)) / 10 / 0.25**2
    assert query_budget(BudgetParams(delta=0.1, L=10), 10**400, 0.25) == math.ceil(need)


def _scaled(digits):
    """Integers from 1 to 10^digits, spread over their orders of magnitude."""
    return st.integers(0, digits).flatmap(lambda k: st.integers(1, 10**k))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    threshold=st.one_of(
        st.just(1.0),
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1021, 0)),
    ),
    L=_scaled(400),
    n=_scaled(400),
    delta=st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 0)),
    per_bit_delta=st.booleans(),
)
def test_query_budget_is_the_least_count_that_meets_the_bound(
    threshold, L, n, delta, per_bit_delta
):
    """Across every accepted T, L, n and delta the budget is the least
    integer Q with Q L T^2 >= C ln(1/delta'), checked in exact fractions;
    a power of two past float range was up to twice that."""
    budget = BudgetParams(delta=delta, L=L, per_bit_delta=per_bit_delta)
    q = query_budget(budget, n, threshold)
    assert isinstance(q, int)
    assert q >= 1
    assert q == _least_count(budget, n, threshold)


@pytest.mark.parametrize("fixed_queries", [None, 5])
@pytest.mark.parametrize("kind", ["dense", "closed", "sampled"])
def test_learn_refuses_unpolarized_probe(kind, fixed_queries):
    cfg = Dqc1Config(n=4, alpha=0.0, p=0.0, theta=HALF_PI, backend=kind)
    oracle = make_oracle(as_bits("0110"), cfg)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
        learn(oracle, plan(cfg, _budget(), fixed_queries=fixed_queries), 1000)


@pytest.mark.parametrize("kind", ["dense", "closed"])
def test_oracle_backends_agree(rng, kind):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        theta = float(rng.uniform(0.2, 2.9))
        j = int(rng.integers(1, n + 1))
        dec = tuple(range(1, j))
        corr = tuple(k for k in dec if bits[k - 1])
        cfg = Dqc1Config(n=n, alpha=0.75, p=0.2, theta=theta, backend=kind)
        rec = make_oracle(bits, cfg)(j, corrections=qubit_mask(corr))
        tau = closed_form_tau(bits, theta, j, decoupled=dec)
        assert rec.ex == pytest.approx(0.75 * 0.8 * tau.real, abs=1e-12)
        assert rec.ey == pytest.approx(0.75 * 0.8 * tau.imag, abs=1e-12)


def _assert_oracle_matches_block(bits, theta, j, corrections):
    """The closed oracle's tau equals the per-qubit block's tau() exactly,
    and the block's kind counts equal a per-qubit tally: qubit k is rotated
    after j and flipped where s_k xor (k corrected) is 1."""
    bits = [int(b) for b in bits]
    block = StepBlock.from_bits(bits, theta, j, (1 << (j - 1)) - 1, corrections)
    cfg = Dqc1Config(n=len(bits), alpha=1.0, p=0.0, theta=theta, backend="closed")
    rec = make_oracle(bits, cfg)(j, corrections)
    assert complex(rec.ex, rec.ey) == block.tau()
    tally = [0] * 4
    for k, bit in enumerate(bits, 1):
        tally[2 * (k > j) + (bit ^ (corrections >> (k - 1) & 1))] += 1
    assert mask_kinds(block.n, block.rotated, block.flips) == tuple(tally)


@pytest.mark.parametrize("theta", [1.1, 2.9])
def test_closed_oracle_matches_step_block_exhaustive(theta):
    for n in range(1, 5):
        for bits in all_bitstrings(n):
            for j in range(1, n + 1):
                prefix = (1 << (j - 1)) - 1
                correct = qubit_mask(k for k in range(1, j) if bits[k - 1])
                for corrections in (correct, 0, prefix, prefix ^ correct):
                    _assert_oracle_matches_block(bits, theta, j, corrections)


def test_closed_oracle_matches_step_block_at_300_qubits(rng):
    for _ in range(200):
        bits = rng.integers(0, 2, size=300)
        j = int(rng.integers(1, 301))
        # the learner's corrections with a few wrong decisions mixed in
        prefix = np.arange(1, j)
        wrong = rng.random(j - 1) < 0.05
        corrections = qubit_mask(prefix[(bits[: j - 1] == 1) ^ wrong])
        _assert_oracle_matches_block(bits, float(rng.uniform(0.1, 3.0)), j, corrections)


@pytest.mark.parametrize("kind", ["dense", "closed", "sampled"])
def test_oracle_rejects_probe_and_corrections_out_of_range(kind):
    cfg = Dqc1Config(n=3, alpha=1.0, p=0.0, theta=1.0, backend=kind)
    oracle = make_oracle(as_bits("011"), cfg)
    for query in (
        (0, 0), (4, 0), (2, qubit_mask((2,))), (2, qubit_mask((3,))),
        # negative masks, and bits at or after j beside valid ones
        (3, -1), (3, -4), (1, 1), (3, qubit_mask((1, 3))), (3, 1 << 64),
        # ensemble or query counts below 1
        (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, -3, 5), (1, 0, 5, -1),
    ):
        with pytest.raises(ValueError):
            oracle(*query)


def test_wrong_correction_kills_later_signal():
    """A mistaken earlier decision leaves a stray flip and zeroes the trace."""
    bits = as_bits("110")
    cfg = Dqc1Config(n=3, alpha=1.0, p=0.0, theta=HALF_PI, backend="dense")
    oracle = make_oracle(bits, cfg)
    # qubit 1 really is coupled, but the caller claims it was clean
    rec = oracle(2, corrections=0)
    assert abs(rec.ex) < 1e-12
    assert abs(rec.ey) < 1e-12


def test_learn_exhaustive_analytic():
    for n in range(1, 5):
        cfg = Dqc1Config(n=n, alpha=1.0, p=0.0, theta=HALF_PI, backend="dense")
        for bits in all_bitstrings(n):
            res = learn(make_oracle(bits, cfg), plan(cfg, _budget(), fixed_queries=1), 1000)
            assert np.array_equal(res.s_hat, bits)
            assert len(res.steps) == n


@pytest.mark.parametrize("kind", ["dense", "closed", "sampled"])
def test_learn_corrects_exactly_the_learned_ones(rng, kind):
    """Every query's corrections mask holds the 1s of s_hat before j, so
    after the run the ones of s_hat are the mask the learner built."""
    for _ in range(10):
        n = int(rng.integers(1, 7))
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        cfg = Dqc1Config(n=n, alpha=1.0, p=0.0, theta=HALF_PI, backend=kind, seed=5)
        oracle = make_oracle(bits, cfg)
        calls = []

        def recording(j, corrections, *args):
            calls.append((j, corrections))
            return oracle(j, corrections, *args)

        res = learn(recording, plan(cfg, _budget(), fixed_queries=200), 1000)
        learned = [k for k in range(1, n + 1) if res.s_hat[k - 1]]
        assert [j for j, _ in calls] == list(range(1, n + 1))
        for j, corrections in calls:
            assert corrections == qubit_mask(k for k in learned if k < j)
        last_j, last_mask = calls[-1]
        assert last_mask | (int(res.s_hat[-1]) << (last_j - 1)) == qubit_mask(learned)


def test_learn_survives_heavy_readout_noise():
    bits = as_bits("0110")
    cfg = Dqc1Config(n=4, alpha=0.4, p=0.8, theta=HALF_PI, backend="dense")
    res = learn(make_oracle(bits, cfg), plan(cfg, _budget(), fixed_queries=1), 1000)
    assert bits_to_str(res.s_hat) == "0110"


def test_learn_sampled_backend_round_trip():
    bits = as_bits("101")
    cfg = Dqc1Config(n=3, alpha=1.0, p=0.0, theta=HALF_PI, backend="sampled", seed=17)
    res = learn(make_oracle(bits, cfg), plan(cfg, _budget(), fixed_queries=200), 1000)
    assert bits_to_str(res.s_hat) == "101"
    assert all(step.queries == 200 for step in res.steps)


def test_learn_step_is_an_immutable_named_tuple():
    record = EstimateRecord(0.25, 0.0, 0.0, 0.0)
    step = LearnStep(3, record, 7, 0.125, 0)
    assert LearnStep(j=3, record=record, queries=7, threshold=0.125, bit=0) == step
    j, (ex, ey, se_x, se_y), queries, threshold, bit = step
    assert (j, ex, ey, se_x, se_y, queries, threshold, bit) == (3, 0.25, 0.0, 0.0, 0.0, 7, 0.125, 0)
    with pytest.raises(AttributeError):
        step.bit = 1
    cfg = _cfg(4)
    res = learn(make_oracle(as_bits("0110"), cfg), plan(cfg, _budget(), fixed_queries=5), 1000)
    assert [step.queries for step in res.steps] == [5, 5, 5, 5]
    assert [step.j for step in res.steps] == [1, 2, 3, 4]
    assert all(type(step.record) is EstimateRecord for step in res.steps)


def test_learn_thresholds_grow_with_decoupling():
    bits = as_bits("0000")
    cfg = Dqc1Config(n=4, alpha=1.0, p=0.0, theta=HALF_PI, backend="dense")
    res = learn(make_oracle(bits, cfg), plan(cfg, _budget(), fixed_queries=1), 1000)
    thresholds = [step.threshold for step in res.steps]
    assert thresholds == sorted(thresholds)
    assert thresholds[-1] == pytest.approx(0.5, abs=1e-12)


@given(
    n=st.integers(1, 64),
    theta=st.floats(-7.0, 7.0),
    alpha=st.floats(0.01, 1.0),
    p=st.floats(0.0, 0.99),
    s_seed=st.integers(0, 2**32 - 1),
    fixed_queries=st.sampled_from([1, None]),
)
def test_learn_steps_are_bitwise_the_formulas(n, theta, alpha, p, s_seed, fixed_queries):
    """Off theta = pi/2: ``plan``'s thresholds are alpha (1-p) gap / 2 with
    the gap ``_gap_factor(theta) ** (n - j)``, a closed run's steps spend
    ``plan``'s (threshold, queries) pairs, and every closed reading is the
    block's trace through ``expectations_from_tau``, bit for bit (an unread
    quadrature is 0.0)."""
    assume(_gap_factor(theta) >= 1e-3)
    bits = np.random.default_rng(s_seed).integers(0, 2, size=n, dtype=np.uint8)
    cfg = Dqc1Config(n=n, alpha=alpha, p=p, theta=theta, backend="closed")
    pairs = plan(cfg, _budget(), fixed_queries=fixed_queries, max_queries=_NO_CAP)
    assert [t for t, _ in pairs] == [
        cfg.alpha * (1 - cfg.p) * _gap_factor(theta) ** (n - j) / 2 for j in range(1, n + 1)
    ]
    oracle = make_oracle(bits, cfg)
    reads = []

    def recording(j, corrections, ensemble, queries, observables):
        reads.append((corrections, observables))
        return oracle(j, corrections, ensemble, queries, observables)

    res = learn(recording, pairs, 1000)
    assert [(step.threshold, step.queries) for step in res.steps] == list(pairs)
    ones = qubit_mask(k for k in range(1, n + 1) if bits[k - 1])
    for step, (corrections, observables) in zip(res.steps, reads, strict=True):
        j = step.j
        rotated = ((1 << n) - 1) >> j << j
        tau = StepBlock(theta, n, rotated, ones ^ corrections).tau()
        ex, ey = expectations_from_tau(alpha, p, tau)
        assert step.record.ex == (ex if "x" in observables else 0.0)
        assert step.record.ey == (ey if "y" in observables else 0.0)


def test_learn_budget_exhaustion():
    """A bit 1 that needs more queries than `max_queries` is refused with
    ``BudgetExhaustedError`` (exit 3), which is not a ValueError (exit 2)."""
    cfg = Dqc1Config(n=40, alpha=0.2, p=0.5, theta=HALF_PI, backend="dense")
    budget = BudgetParams(delta=0.01, L=10)
    with pytest.raises(BudgetExhaustedError) as info:
        learn(make_oracle(as_bits("0" * 40), cfg), plan(cfg, budget, max_queries=1000), budget.L)
    assert not isinstance(info.value, ValueError)
    assert info.value.j == 1
    assert info.value.required > info.value.allowed == 1000


@pytest.mark.parametrize(
    "fields,budget,caps,message",
    [
        pytest.param({"alpha": 0.0}, _budget(), {}, r"alpha must lie in \(0, 1\]", id="alpha-zero"),
        pytest.param({"n": 0}, _budget(), {}, "nothing to learn", id="n-zero"),
        pytest.param({"theta": math.pi}, _budget(), {}, "multiples of pi", id="theta-pi"),
        # bit 1's threshold is 2^-1050.5
        pytest.param({"n": 2100}, _budget(), {"fixed_queries": 1},
                     r"threshold of bit 1 is below 2\^-1022", id="threshold-2100-bits"),
        pytest.param({}, _budget(), {"fixed_queries": 10, "max_queries": 5},
                     "^bit 1 needs 10 queries, budget allows 5$", id="exhausted-fixed"),
        pytest.param({"n": 40, "alpha": 0.2, "p": 0.5}, BudgetParams(delta=0.01, L=10),
                     {"max_queries": 1000},
                     r"^bit 1 needs about 2\^48.4 queries, budget allows 1000$",
                     id="exhausted-budget"),
    ],
)
def test_learn_refuses_before_any_query(fields, budget, caps, message):
    """Each refusal of a run is raised by ``plan``, with its type and message,
    before ``learn`` calls the oracle once."""
    cfg = Dqc1Config(**{"n": 4, "alpha": 1.0, "p": 0.0, "theta": HALF_PI, **fields})
    calls = []

    def counting(*query):
        calls.append(query)
        return EstimateRecord(0.0, 0.0, 0.0, 0.0)

    with pytest.raises((ValueError, BudgetExhaustedError), match=message):
        learn(counting, plan(cfg, budget, **caps), budget.L)
    assert calls == []


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 64),
    theta=st.floats(-7.0, 7.0),
    alpha=st.floats(0.01, 1.0),
    p=st.floats(0.0, 0.99),
    L=_scaled(30),
    delta=st.floats(1e-300, 1.0, exclude_max=True),
    per_bit_delta=st.booleans(),
)
def test_plan_queries_never_grow_with_j(n, theta, alpha, p, L, delta, per_bit_delta):
    """T_j never shrinks and Q_j never grows with j, so ``plan`` checks only
    bit 1 against the normal range and the cap: a cap one below Q_1 is
    refused at bit 1, the bit that exit 3 names."""
    assume(_gap_factor(theta) >= 1e-3)
    cfg = Dqc1Config(n=n, alpha=alpha, p=p, theta=theta)
    budget = BudgetParams(delta=delta, L=L, per_bit_delta=per_bit_delta)
    thresholds, counts = zip(*plan(cfg, budget, max_queries=_NO_CAP))
    assert list(thresholds) == sorted(thresholds)
    assert list(counts) == sorted(counts, reverse=True)
    if counts[0] > 1:
        with pytest.raises(BudgetExhaustedError) as info:
            plan(cfg, budget, max_queries=counts[0] - 1)
        assert (info.value.j, info.value.required) == (1, counts[0])
