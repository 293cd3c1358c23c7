import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqc1lpn.circuits import StepBlock, as_bits, bits_to_str, mask_kinds
from dqc1lpn.dqc1 import Dqc1Config, EstimateRecord
from dqc1lpn.lpn import (
    BudgetExhaustedError,
    BudgetParams,
    closed_form_tau,
    decide_bit,
    learn,
    make_oracle,
    query_budget,
)

from conftest import all_bitstrings, qubit_mask, reference_tau

HALF_PI = math.pi / 2


def _budget(L=1000):
    return BudgetParams(delta=0.01, L=L)


def _cfg(n, alpha=1.0, p=0.0):
    return Dqc1Config(n=n, alpha=alpha, p=p, theta=HALF_PI)


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


def test_closed_form_tau_validation():
    bits = as_bits("011")
    with pytest.raises(ValueError):
        closed_form_tau(bits, 1.0, 0)
    with pytest.raises(ValueError):
        closed_form_tau(bits, 1.0, 4)
    with pytest.raises(ValueError):
        closed_form_tau(bits, 1.0, 2, decoupled=(2,))
    with pytest.raises(ValueError):
        closed_form_tau(bits, 1.0, 1, decoupled=(5,))


def test_decide_bit_threshold():
    rec = EstimateRecord(ex=0.3, ey=0.0, se_x=0.0, se_y=0.0)
    assert decide_bit(rec, 0.2) == 0
    assert decide_bit(rec, 0.4) == 1
    with pytest.raises(ValueError):
        decide_bit(rec, 0.0)


@given(
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=1e-6, max_value=2),
)
def test_decide_bit_is_indicator(ex, ey, threshold):
    rec = EstimateRecord(ex=ex, ey=ey, se_x=0.0, se_y=0.0)
    assert decide_bit(rec, threshold) == int(abs(ex) + abs(ey) < threshold)


def test_query_budget_monotone_in_tail():
    b = _budget(L=1)
    values = [query_budget(b, _cfg(n), 1) for n in (2, 4, 8, 12)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_query_budget_diverges_with_readout_noise():
    qs = [query_budget(_budget(L=100), _cfg(4, p=p), 1) for p in (0.0, 0.9, 0.99)]
    assert qs[0] < qs[1] < qs[2]


def test_query_budget_efficiency_frontier():
    big_l = _budget(L=10**22)
    assert all(query_budget(big_l, _cfg(66), j) == 1 for j in (1, 33, 66))
    assert query_budget(big_l, _cfg(120), 1) > 10**6


@pytest.mark.parametrize(
    "n,j,alpha,L,delta,expected",
    [
        # 2^(n-j) does not fit in a float
        pytest.param(2200, 1, 1.0, 1, 0.01, None, id="overflow"),
        # 2^(n-j) fits, the quotient by a tiny scale does not
        pytest.param(1022, 1, 1e-3, 1, 0.01, None, id="nonfinite"),
        # 1/delta' overflows: 2 ln(4e320) 4 2^3 / 1000 = 47.2
        pytest.param(4, 1, 1.0, 1000, 1e-320, 48, id="subnormal-delta"),
        # delta/n underflows to 0: 2 ln(4 / 5e-324) 4 2^3 / 1000 = 47.7
        pytest.param(4, 1, 1.0, 1000, 5e-324, 48, id="zero-delta-share"),
        # L (alpha (1-p))^2 underflows to 0: 2^1128.07 queries
        pytest.param(4, 1, 1e-170, 1000, 0.01, 2**1129, id="underflowed-scale"),
    ],
)
def test_query_budget_log_space_fallback(n, j, alpha, L, delta, expected):
    # the float quotient is unusable; result must still be a usable int
    q = query_budget(BudgetParams(delta=delta, L=L), _cfg(n, alpha=alpha), j)
    assert isinstance(q, int)
    assert q > 10**300 if expected is None else q == expected


def test_query_budget_per_bit_delta_needs_less():
    shared = BudgetParams(delta=0.01, L=1)
    per_bit = BudgetParams(delta=0.01, L=1, per_bit_delta=True)
    assert query_budget(per_bit, _cfg(10), 1) <= query_budget(shared, _cfg(10), 1)


def test_query_budget_refuses_unpolarized_probe():
    """alpha = 0 would make the budget's scale 0; it is refused by name."""
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
        query_budget(_budget(), _cfg(4, alpha=0.0), 1)


@pytest.mark.parametrize("fixed_queries", [None, 5])
@pytest.mark.parametrize("kind", ["dense", "closed", "sampled"])
def test_learn_refuses_unpolarized_probe(kind, fixed_queries):
    cfg = Dqc1Config(n=4, alpha=0.0, p=0.0, theta=HALF_PI, backend=kind)
    oracle = make_oracle(as_bits("0110"), cfg)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
        learn(oracle, cfg, _budget(), fixed_queries=fixed_queries)


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


def test_oracle_rejects_corrections_outside_decoupled():
    cfg = Dqc1Config(n=3, alpha=1.0, p=0.0, theta=1.0)
    oracle = make_oracle(as_bits("011"), cfg)
    with pytest.raises(ValueError):
        oracle(2, corrections=qubit_mask((3,)))


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
    with pytest.raises(ValueError, match="at least 1"):
        learn(oracle, cfg, _budget(), fixed_queries=0)


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
        cfg = Dqc1Config(n=n, alpha=1.0, p=0.0, theta=HALF_PI)
        for bits in all_bitstrings(n):
            res = learn(make_oracle(bits, cfg), cfg, _budget(), fixed_queries=1)
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

        res = learn(recording, cfg, _budget(), fixed_queries=200)
        learned = [k for k in range(1, n + 1) if res.s_hat[k - 1]]
        assert [j for j, _ in calls] == list(range(1, n + 1))
        for j, corrections in calls:
            assert corrections == qubit_mask(k for k in learned if k < j)
        last_j, last_mask = calls[-1]
        assert last_mask | (int(res.s_hat[-1]) << (last_j - 1)) == qubit_mask(learned)


def test_learn_survives_heavy_readout_noise():
    bits = as_bits("0110")
    cfg = Dqc1Config(n=4, alpha=0.4, p=0.8, theta=HALF_PI, backend="dense")
    res = learn(make_oracle(bits, cfg), cfg, _budget(), fixed_queries=1)
    assert bits_to_str(res.s_hat) == "0110"


def test_learn_sampled_backend_round_trip():
    bits = as_bits("101")
    cfg = Dqc1Config(n=3, alpha=1.0, p=0.0, theta=HALF_PI, backend="sampled", seed=17)
    res = learn(make_oracle(bits, cfg), cfg, _budget(), fixed_queries=200)
    assert bits_to_str(res.s_hat) == "101"
    assert all(step.queries == 200 for step in res.steps)


def test_learn_thresholds_grow_with_decoupling():
    bits = as_bits("0000")
    cfg = Dqc1Config(n=4, alpha=1.0, p=0.0, theta=HALF_PI)
    res = learn(make_oracle(bits, cfg), cfg, _budget(), fixed_queries=1)
    thresholds = [step.threshold for step in res.steps]
    assert thresholds == sorted(thresholds)
    assert thresholds[-1] == pytest.approx(0.5, abs=1e-12)


def test_learn_budget_exhaustion():
    cfg = Dqc1Config(n=40, alpha=0.2, p=0.5, theta=HALF_PI)
    budget = BudgetParams(delta=0.01, L=10)
    with pytest.raises(BudgetExhaustedError) as info:
        learn(make_oracle(as_bits("0" * 40), cfg), cfg, budget, max_queries=1000)
    assert info.value.j == 1
    assert info.value.required > info.value.allowed


def test_learn_rejects_degenerate_angle():
    cfg = Dqc1Config(n=2, alpha=1.0, p=0.0, theta=0.0)
    with pytest.raises(ValueError):
        learn(make_oracle(as_bits("01"), cfg), cfg, _budget())
