import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import all_bitstrings, dense_final_state

from dqc1lpn.circuits import StepBlock, as_bits, bits_to_str
from dqc1lpn.dqc1 import Dqc1Config
from dqc1lpn.noise import (
    default_probe_bit,
    midcircuit_noise_sweep,
    phase_flip_parity_experiment,
    systematic_error_sweep,
)

import dense_reference as qstate
from dense_reference import (
    PAULI_Z,
    DensityMatrix,
    OperatorMatrix,
    depolarize,
    depolarizing_kraus,
    embed,
    probe_expectations,
)

HALF_PI = math.pi / 2


def _cfg(n, theta=HALF_PI, alpha=1.0, p=0.0):
    return Dqc1Config(n=n, alpha=alpha, p=p, theta=theta)


def _dense_cases():
    """(s, j, cfg) for every string of weight >= 1 with n <= 4 and every
    probe bit (j=None, the uniform rotation, for all ones), at three
    angles, or one where s_j = 1 makes the trace 0 at any angle; the two
    (alpha, p) pairs alternate from case to case, so every string and
    every angle meets both."""
    pairs = itertools.cycle(((1.0, 0.0), (0.6, 0.3)))
    for n in (1, 2, 3, 4):
        for bits in all_bitstrings(n):
            if not bits.any():
                continue
            for j in list(range(1, n + 1)) + ([None] if bits.all() else []):
                coupled = j is not None and bits[j - 1]
                for theta in (2.2,) if coupled else (0.3, HALF_PI, 2.2):
                    alpha, p = next(pairs)
                    yield bits_to_str(bits), j, _cfg(n, theta, alpha, p)


def test_midcircuit_matches_dense_reference():
    """The damped closed-form trace agrees with the dense channel run; a
    probe bit with s_j = 1 has no signal to damp and is refused."""
    worst = 0.0
    for s, j, cfg in _dense_cases():
        if j is not None and s[j - 1] == "1":
            with pytest.raises(ValueError, match="vanishes"):
                midcircuit_noise_sweep(s, cfg, [0.05], j=j)[0]
            continue
        clean = dense_final_state(s, cfg, j=j, between=lambda r: r)
        den = abs(complex(*probe_expectations(clean, cfg.p)))
        assert midcircuit_noise_sweep(s, cfg, [0.0], j=j)[0] == 1.0
        data = range(1, cfg.n + 1)
        for q in (0.05, 0.2):
            rho = dense_final_state(
                s, cfg, j=j, between=lambda r: depolarize(r, q, data)
            )
            num = abs(complex(*probe_expectations(rho, cfg.p)))
            ratio = midcircuit_noise_sweep(s, cfg, [q], j=j)[0]
            worst = max(worst, abs(ratio - num / den))
    assert worst < 1e-12


@functools.cache
def _dense_sz(k, total):
    return OperatorMatrix(embed(PAULI_Z, k, total), unitary=True, validate=False)


def test_phase_flip_parity_matches_dense_reference():
    """Sign-flipped closed-form expectations agree with sz inserted into
    the dense circuit, for every flip set of size 0 to 2, and a vanishing
    component is never a negative zero."""
    worst = 0.0
    for s, j, cfg in _dense_cases():
        total = cfg.n + 1
        for size in (0, 1, 2):
            for flips in itertools.combinations(range(1, cfg.n + 1), size):

                def insert(rho):
                    for k in flips:
                        rho = qstate.apply_unitary(rho, _dense_sz(k, total))
                    return rho

                rho = dense_final_state(s, cfg, j=j, between=insert)
                ex, ey = probe_expectations(rho, cfg.p)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    rec = phase_flip_parity_experiment(s, cfg, flips, j=j)
                worst = max(worst, abs(rec.ex - ex), abs(rec.ey - ey))
                for value in (rec.ex, rec.ey):
                    assert value != 0.0 or math.copysign(1.0, value) > 0
    assert worst < 1e-12


def test_midcircuit_refuses_exact_zeros_only():
    """s_j = 1, theta = 0 and alpha = 0 zero the signal and are refused;
    at 128 qubits the tiny but nonzero signal gives (1-q)^64, and a ratio
    below 2^-1022 is refused."""
    s = "01" * 64
    refused = ((2, _cfg(128)), (1, _cfg(128, theta=0.0)), (1, _cfg(128, alpha=0.0)))
    for j, cfg in refused:
        with pytest.raises(ValueError, match="vanishes"):
            midcircuit_noise_sweep(s, cfg, [0.1], j=j)[0]
    assert midcircuit_noise_sweep(s, _cfg(128), [0.1], j=1)[0] == 0.9**64
    with pytest.raises(ValueError, match="2\\^-1022"):
        midcircuit_noise_sweep("0" + "1" * 3200, _cfg(3201), [0.2])[0]


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
        ratio = midcircuit_noise_sweep(bits, cfg, [q])[0]
        assert ratio == pytest.approx((1 - q) ** m, abs=1e-12)


def test_midcircuit_sweep_is_the_one_point_calls():
    """The sweep builds the block once and gives each point's ratio bit for
    bit, as a one-point sweep does."""
    bits, qs = as_bits("0110100110"), [0.2, 0.0, 0.013, 0.11]
    for j in (None, 1, 4):
        cfg = _cfg(bits.size)
        assert midcircuit_noise_sweep(bits, cfg, qs, j=j) == [
            midcircuit_noise_sweep(bits, cfg, [q], j=j)[0] for q in qs
        ]


def test_midcircuit_rejects_out_of_range_rate():
    cfg = _cfg(2)
    with pytest.raises(ValueError):
        midcircuit_noise_sweep(as_bits("01"), cfg, [0.5])[0]
    with pytest.raises(ValueError):
        midcircuit_noise_sweep(as_bits("00"), cfg, [0.1])[0]


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
    """A qubit outside 1..n, and a qubit named twice (two sz on it cancel,
    so counting it once would print a sign flip that does not happen)."""
    cfg = _cfg(3)
    with pytest.raises(ValueError):
        phase_flip_parity_experiment(as_bits("011"), cfg, (4,))
    with pytest.raises(ValueError, match="qubit 2 repeated"):
        phase_flip_parity_experiment(as_bits("011"), cfg, (2, 3, 2))


def test_phase_flip_scales_with_readout_noise():
    bits = as_bits("011")
    noisy = phase_flip_parity_experiment(bits, _cfg(3, alpha=0.8, p=0.5), ())
    clean = phase_flip_parity_experiment(bits, _cfg(3, alpha=0.8, p=0.0), ())
    assert noisy.ex == pytest.approx(0.5 * clean.ex, abs=1e-12)
    assert noisy.ey == pytest.approx(0.5 * clean.ey, abs=1e-12)


def _dense_taus(bits, phis, thetas, j):
    """The normalized trace summed over the tilted block's dense diagonal,
    at each (phi, theta) in the order of ``systematic_error_sweep``."""
    return [
        complex(StepBlock.from_bits(bits, theta, j, phi=phi).dense_trace() / 2**bits.size)
        for phi, theta in itertools.product(phis, thetas)
    ]


def test_systematic_sweep_known_point():
    # s=011, j=1, phi=pi/3: (i/sqrt2)^2 cos^2(pi/3) = -1/8
    bits = as_bits("011")
    taus = systematic_error_sweep(bits, [math.pi / 3], [HALF_PI], j=1)
    (dense,) = _dense_taus(bits, [math.pi / 3], [HALF_PI], 1)
    assert dense == pytest.approx(-1 / 8, abs=1e-12)
    assert abs(taus[0] - dense) < 1e-12


def test_systematic_prediction_is_the_block_closed_form():
    """The prediction is the tilted block's own tau(): exact, with +0.0 for a
    zero component where cos(phi)^m < 0 once gave -0.0."""
    for s, j in (("0111", 2), ("01", 1), ("0110", 1)):
        bits = as_bits(s)
        phis, thetas = [0.6 * math.pi, 0.7 * math.pi], [1.0, 2.0]
        taus = systematic_error_sweep(bits, phis, thetas, j=j)
        assert len(taus) == 4
        for (phi, theta), tau in zip(itertools.product(phis, thetas), taus):
            assert tau == StepBlock.from_bits(bits, theta, j, phi=phi).tau()
            for part in (tau.real, tau.imag):
                assert math.copysign(1.0, part) == 1.0 or part != 0.0


def test_systematic_sweep_grid_accuracy():
    bits = as_bits("0110")
    phis = [0.0, 0.1 * math.pi, 0.2 * math.pi, 0.3 * math.pi, 0.4 * math.pi]
    thetas = [0.3, 0.8, HALF_PI, 2.0, 2.2]
    taus = systematic_error_sweep(bits, phis, thetas)
    assert len(taus) == 25
    dense = _dense_taus(bits, phis, thetas, default_probe_bit(bits))
    assert max(abs(t - d) for t, d in zip(taus, dense)) < 1e-10
