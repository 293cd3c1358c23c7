import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqc1lpn import circuits, dqc1, infomeasures, lpn, qstate
from dqc1lpn.infomeasures import (
    _binary_entropy_array,
    binary_entropy,
    coherence_consumption,
    protocol_discord,
)
from dqc1lpn.circuits import StepBlock
from dqc1lpn.qstate import (
    DensityMatrix,
    mutual_information,
    partial_trace,
    ppt_min_eigenvalue,
    quantum_discord,
    rel_entropy_coherence,
)

from conftest import reference_protocol_discord, step_blocks

HALF_PI = math.pi / 2

# 1 - H2(1/4)
COHERENCE_HALF_ALPHA = 0.1887218755408672

BELL = DensityMatrix(
    np.array(
        [
            [0.5, 0, 0, 0.5],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0.5, 0, 0, 0.5],
        ],
        dtype=complex,
    )
)


def _protocol_state(s, theta, alpha, j=1):
    bits = circuits.as_bits(s)
    cfg = dqc1.Dqc1Config(n=bits.size, alpha=alpha, p=0.0, theta=theta)
    block = qstate.block_operator(StepBlock.from_bits(bits, theta, j))
    return qstate.run_protocol(cfg, block)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)
    assert binary_entropy(x) <= 1.0 + 1e-12


def test_rel_entropy_coherence():
    diagonal = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    assert rel_entropy_coherence(diagonal) == pytest.approx(0.0, abs=1e-12)
    plus = DensityMatrix.from_pure(np.array([1, 1], dtype=complex) / np.sqrt(2))
    assert rel_entropy_coherence(plus) == pytest.approx(1.0, abs=1e-12)


def test_coherence_consumption_values():
    assert coherence_consumption(0.5, 0.0) == pytest.approx(
        COHERENCE_HALF_ALPHA, abs=1e-15
    )
    assert coherence_consumption(0.5, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert coherence_consumption(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        coherence_consumption(1.2, 0.5)
    with pytest.raises(ValueError):
        coherence_consumption(0.5, -0.1)


def test_coherence_consumption_is_probe_coherence_drop():
    """Difference of probe coherences before and after the controlled block."""
    for s, theta, alpha in (("01", 1.1, 0.6), ("011", HALF_PI, 0.9), ("10", 2.2, 0.4)):
        bits = circuits.as_bits(s)
        rho = _protocol_state(s, theta, alpha)
        # before the block the probe is (1 + alpha sx)/2
        before = DensityMatrix(
            np.array([[0.5, alpha / 2], [alpha / 2, 0.5]], dtype=complex)
        )
        after = partial_trace(rho, [0])
        drop = rel_entropy_coherence(before) - rel_entropy_coherence(after)
        tau = lpn.closed_form_tau(bits, theta, 1)
        assert drop == pytest.approx(
            coherence_consumption(alpha, abs(tau)), abs=1e-10
        )


def test_discord_zero_for_product_state():
    probe = np.array([[0.75, 0.2], [0.2, 0.25]], dtype=complex)
    rho = DensityMatrix(np.kron(probe, np.eye(2) / 2))
    assert quantum_discord(rho).discord == pytest.approx(0.0, abs=1e-9)


def test_discord_of_bell_state_is_one():
    res = quantum_discord(BELL)
    assert res.discord == pytest.approx(1.0, abs=1e-6)


def test_discord_zero_at_degenerate_angles():
    for theta in (0.0, math.pi):
        res = quantum_discord(_protocol_state("011", theta, 0.7))
        assert res.discord == pytest.approx(0.0, abs=1e-6)


def test_discord_positive_at_intermediate_angle():
    res = quantum_discord(_protocol_state("011", HALF_PI, 0.7))
    assert res.discord > 1e-3
    assert res.iterations >= 1


def test_discord_equal_across_coupled_strings():
    """Strings sharing s_j=1 give the same discord at fixed n."""
    values = []
    for tail in itertools.product("01", repeat=2):
        s = "1" + "".join(tail)
        values.append(quantum_discord(_protocol_state(s, HALF_PI, 0.6)).discord)
    assert max(values) - min(values) < 1e-9


def test_discord_bounded_by_mutual_information():
    for s, alpha in (("01", 0.5), ("110", 0.8)):
        rho = _protocol_state(s, 1.2, alpha)
        assert quantum_discord(rho).discord <= mutual_information(rho) + 1e-9


def test_mutual_information_closed_form():
    """For protocol states the mutual information equals the coherence drop."""
    for s, theta, alpha in (("01", 1.2, 0.5), ("111", HALF_PI, 0.9)):
        bits = circuits.as_bits(s)
        rho = _protocol_state(s, theta, alpha)
        tau = lpn.closed_form_tau(bits, theta, 1)
        assert mutual_information(rho) == pytest.approx(
            coherence_consumption(alpha, abs(tau)), abs=1e-10
        )


def test_ppt_bell_state_is_negative():
    assert ppt_min_eigenvalue(BELL) == pytest.approx(-0.5, abs=1e-12)


def test_ppt_protocol_states_stay_positive():
    """No entanglement across the probe cut: min eigenvalue is (1-alpha)/2^{n+1}."""
    for s in ("01", "011", "0110"):
        n = len(s)
        for alpha in (0.5, 1.0):
            rho = _protocol_state(s, HALF_PI, alpha)
            got = ppt_min_eigenvalue(rho)
            assert got == pytest.approx((1 - alpha) / 2 ** (n + 1), abs=1e-12)
            assert got >= -1e-10


def test_discord_measurement_angles_in_range():
    res = quantum_discord(_protocol_state("01", 1.0, 0.8))
    assert 0.0 <= res.measurement_theta <= math.pi
    assert 0.0 <= res.measurement_phi < 2 * math.pi


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_protocol_discord_matches_dense(phi):
    """Eigenphase discord against the dense grid-and-compass optimizer on
    the protocol state, for every step block with n <= 4.  The dense grid
    is coarse to keep the run short; its compass search still refines it."""
    for block in step_blocks(1.1, phi):
        n = block.n
        w = qstate.block_operator(block)
        for alpha in (0.0, 0.3, 0.7, 1.0):
            cfg = dqc1.Dqc1Config(n=n, alpha=alpha, p=0.0, theta=block.theta)
            dense = quantum_discord(qstate.run_protocol(cfg, w), grid_shape=(5, 8))
            fast = protocol_discord(block, alpha)
            assert abs(fast.discord - dense.discord) < 1e-9
            assert fast.measurement_theta == HALF_PI
            assert 0.0 <= fast.measurement_phi <= HALF_PI


def test_protocol_discord_folds_the_mirror_minimum():
    """s = 0110, j = 1 at pi/2 has mirror minima phi* and pi - phi* of
    the even objective; the search covers [0, pi/2] only and reports phi*."""
    block = StepBlock.from_bits(circuits.as_bits("0110"), HALF_PI, 1)
    res = protocol_discord(block, 1.0)
    assert format(res.measurement_phi, ".12g") == "0.831077909159"
    assert format(res.discord, ".12g") == "0.451687929294"


@pytest.mark.parametrize("theta", [0.0, math.pi])
def test_protocol_discord_exactly_zero_at_full_polarization(theta):
    """At alpha = 1 the entropy arguments sit on 0 and 1, where rounding
    could push them outside [0, 1]; the degenerate angles leave no discord."""
    for s in ("0", "1", "01", "011", "0110", "1111", "10101"):
        bits = circuits.as_bits(s)
        for j in range(1, bits.size + 1):
            block = StepBlock.from_bits(bits, theta, j)
            assert protocol_discord(block, 1.0).discord == 0.0


def test_binary_entropy_array_is_exactly_zero_at_the_endpoints():
    """0 log 0 = 0 without a mask: 0 and 1, and the arguments that round
    just outside them and are clipped onto them, give +0.0 exactly."""
    ends = np.array([0.0, 1.0, -0.0, -1e-17, -5e-324, 1.0 + 2.0**-52, 1.0 + 1e-9])
    h = _binary_entropy_array(ends)
    assert (h == 0.0).all() and not np.signbit(h).any()


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_protocol_discord_matches_reference_objective(phi):
    """The quadrature objective against the outer-difference one it replaced,
    on random blocks of up to 300 qubits with random decoupled prefixes and
    corrections: the same discord to 1e-12 and the same number of
    refinement evaluations, five levels of 33 angles after the first grid,
    also where a level is clamped at 0 or pi/2.  Half the blocks have at
    most 8 qubits, where |tau| is large enough for the readout term to
    count."""
    rng = np.random.default_rng(1300 + int(phi * 10))
    for n in rng.integers(1, 9, 8).tolist() + rng.integers(9, 301, 8).tolist():
        bits = rng.integers(0, 2, n).tolist()
        j = int(rng.integers(1, n + 1))
        decoupled = (1 << (j - 1)) - 1
        corrections = int(rng.integers(0, 2**62)) & decoupled
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        block = StepBlock.from_bits(bits, theta, j, decoupled, corrections, phi=phi)
        for alpha in (0.0, 0.3, 0.7, 1.0):
            fast = protocol_discord(block, alpha)
            discord, iterations = reference_protocol_discord(block, alpha)
            assert abs(fast.discord - discord) <= 1e-12
            assert fast.iterations == iterations == 5 * 33


def test_protocol_discord_searches_one_quarter_period(monkeypatch):
    """Every bracket of a refinement level and every angle the nested grids
    probe lies in [0, pi/2], also when the best grid point is an end of it."""
    brackets, probes = [], []
    nested_grid_min = infomeasures._nested_grid_min

    def spy(objective):
        levels = []

        def probed(phis):
            levels.append(phis)
            return objective(phis)

        result = nested_grid_min(probed)
        probes.extend(np.concatenate(levels).tolist())
        brackets.extend((float(p.min()), float(p.max())) for p in levels[1:])
        return result

    monkeypatch.setattr(infomeasures, "_nested_grid_min", spy)
    for phi in (0.0, 0.3):
        for block in step_blocks(1.1, phi):
            for alpha in (0.0, 0.3, 0.7, 1.0):
                assert 0.0 <= protocol_discord(block, alpha).measurement_phi <= HALF_PI
    assert brackets and all(0.0 <= lo < hi <= HALF_PI for lo, hi in brackets)
    assert any(lo == 0.0 for lo, _ in brackets)
    assert probes and all(0.0 <= q <= HALF_PI for q in probes)


def test_protocol_discord_rejects_alpha_outside_unit_interval():
    block = StepBlock.from_bits([0, 1], HALF_PI, 1)
    for alpha in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            protocol_discord(block, alpha)
