import math

import numpy as np
import pytest

from dqc1lpn.circuits import as_bits
from dqc1lpn.dqc1 import Dqc1Config
from dqc1lpn.noise import (
    default_probe_bit,
    depolarize,
    depolarizing_kraus,
    midcircuit_noise_experiment,
    phase_flip_parity_experiment,
    systematic_error_sweep,
)
from dqc1lpn.qstate import DensityMatrix

HALF_PI = math.pi / 2


def _cfg(n, theta=HALF_PI, alpha=1.0, p=0.0):
    return Dqc1Config(n=n, alpha=alpha, p=p, theta=theta)


def test_depolarizing_kraus_is_complete():
    for rate in (0.0, 0.3, 1.0):
        ops = depolarizing_kraus(rate)
        acc = sum(op.conj().T @ op for op in ops.operators)
        np.testing.assert_allclose(acc, np.eye(2), atol=1e-14)


def test_depolarize_full_rate_mixes_target():
    rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex))
    out = depolarize(rho, 1.0, [1])
    np.testing.assert_allclose(
        out.entries, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-14
    )


def test_default_probe_bit():
    assert default_probe_bit(as_bits("0110")) == 1
    assert default_probe_bit(as_bits("10")) == 2
    assert default_probe_bit(as_bits("11")) is None


@pytest.mark.parametrize("s,m", [("01", 1), ("0110", 2), ("111", 3)])
def test_midcircuit_ratio_is_power_law(s, m):
    """Register-wide depolarization damps the signal by (1-q) per coupled qubit."""
    bits = as_bits(s)
    cfg = _cfg(bits.size)
    for q in (0.0, 0.02, 0.2):
        ratio = midcircuit_noise_experiment(bits, cfg, q)
        assert ratio == pytest.approx((1 - q) ** m, abs=1e-12)


def test_midcircuit_rejects_out_of_range_rate():
    cfg = _cfg(2)
    with pytest.raises(ValueError):
        midcircuit_noise_experiment(as_bits("01"), cfg, 0.5)
    with pytest.raises(ValueError):
        midcircuit_noise_experiment(as_bits("00"), cfg, 0.1)


def test_single_phase_flip_reverses_polarization():
    bits = as_bits("0110")
    cfg = _cfg(4)
    clean = phase_flip_parity_experiment(bits, cfg, ())
    flipped = phase_flip_parity_experiment(bits, cfg, (2,))
    assert flipped.ex == pytest.approx(-clean.ex, abs=1e-12)
    assert flipped.ey == pytest.approx(-clean.ey, abs=1e-12)


def test_paired_phase_flips_cancel():
    bits = as_bits("0110")
    cfg = _cfg(4)
    clean = phase_flip_parity_experiment(bits, cfg, ())
    paired = phase_flip_parity_experiment(bits, cfg, (2, 3))
    assert paired.ex == pytest.approx(clean.ex, abs=1e-12)
    assert paired.ey == pytest.approx(clean.ey, abs=1e-12)


def test_flip_on_uncoupled_qubit_warns_and_does_nothing():
    bits = as_bits("0110")
    cfg = _cfg(4)
    clean = phase_flip_parity_experiment(bits, cfg, ())
    with pytest.warns(UserWarning):
        harmless = phase_flip_parity_experiment(bits, cfg, (1,))
    assert harmless.ex == pytest.approx(clean.ex, abs=1e-12)


def test_phase_flip_rejects_bad_targets():
    cfg = _cfg(3)
    with pytest.raises(ValueError):
        phase_flip_parity_experiment(as_bits("011"), cfg, (4,))


def test_phase_flip_scales_with_readout_noise():
    bits = as_bits("011")
    noisy = phase_flip_parity_experiment(bits, _cfg(3, alpha=0.8, p=0.5), ())
    clean = phase_flip_parity_experiment(bits, _cfg(3, alpha=0.8, p=0.0), ())
    assert noisy.ex == pytest.approx(0.5 * clean.ex, abs=1e-12)
    assert noisy.ey == pytest.approx(0.5 * clean.ey, abs=1e-12)


def test_systematic_sweep_known_point():
    # s=011, j=1, phi=pi/3: (i/sqrt2)^2 cos^2(pi/3) = -1/8
    bits = as_bits("011")
    rows = systematic_error_sweep(bits, _cfg(3), [math.pi / 3], [HALF_PI], j=1)
    assert rows[0].tau_dense == pytest.approx(-1 / 8, abs=1e-12)
    assert rows[0].deviation < 1e-12


def test_systematic_sweep_grid_accuracy():
    bits = as_bits("0110")
    phis = [0.0, 0.1 * math.pi, 0.2 * math.pi, 0.3 * math.pi, 0.4 * math.pi]
    thetas = [0.3, 0.8, HALF_PI, 2.0, 2.2]
    rows = systematic_error_sweep(bits, _cfg(4), phis, thetas)
    assert len(rows) == 25
    assert max(row.deviation for row in rows) < 1e-10
