import numpy as np
import pytest

from dqc1lpn import circuits, qstate
from dqc1lpn.dqc1 import (
    Dqc1Config,
    EstimateRecord,
    expectations_from_tau,
    sample_expectations,
)
from dqc1lpn.qstate import (
    OperatorMatrix,
    analytic_expectations,
    initial_state,
    probe_expectations,
    run_protocol,
)

from conftest import random_unitary


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


def test_analytic_expectations_match_trace(rng):
    cfg = Dqc1Config(n=2, alpha=0.6, p=0.25, theta=1.0)
    for _ in range(5):
        w = random_unitary(rng, 4)
        tau = complex(np.trace(w)) / 4
        got = analytic_expectations(cfg, OperatorMatrix(w, unitary=True))
        assert got == pytest.approx(expectations_from_tau(0.6, 0.25, tau), abs=1e-12)


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


def test_estimate_record_validation():
    EstimateRecord(ex=0.1, ey=-0.2, se_x=0.01, se_y=0.01)
    with pytest.raises(ValueError):
        EstimateRecord(ex=1.5, ey=0.0, se_x=0.0, se_y=0.0)
    with pytest.raises(ValueError):
        EstimateRecord(ex=0.0, ey=0.0, se_x=-0.1, se_y=0.0)


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
    ups_x = np.random.default_rng(x_stream).binomial(500, 0.65, size=3)
    ups_y = np.random.default_rng(y_stream).binomial(500, 0.45, size=3)
    assert first.ex == (2.0 * float(ups_x.mean()) - 500) / 500
    assert first.ey == (2.0 * float(ups_y.mean()) - 500) / 500


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
