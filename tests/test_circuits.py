import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dqc1lpn import circuits
from dqc1lpn.circuits import (
    StepBlock,
    as_bits,
    bits_to_str,
    build_parity_unitary,
    cnot,
    controlled,
    embed,
    error_identity_check,
    parity_step_block,
    rx,
    weight,
)

from conftest import all_bitstrings, random_unitary, reference_tau, step_blocks

CNOT_01 = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.2, np.pi, -1.1])
@pytest.mark.parametrize("phi", [0.0, 0.4, np.pi / 3])
def test_rx_matches_matrix_exponential(theta, phi):
    """The rotation is exp(+i theta/2 (cos phi X + sin phi Y))."""
    axis = np.cos(phi) * circuits.PAULI_X + np.sin(phi) * circuits.PAULI_Y
    expected = scipy.linalg.expm(0.5j * theta * axis)
    np.testing.assert_allclose(rx(theta, phi), expected, atol=1e-13)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_rx_inverse(theta):
    np.testing.assert_allclose(rx(theta) @ rx(-theta), np.eye(2), atol=1e-12)


def test_as_bits_roundtrip():
    bits = as_bits("01101")
    assert bits_to_str(bits) == "01101"
    assert weight(bits) == 3
    np.testing.assert_array_equal(as_bits([1, 0, 1]), [1, 0, 1])


def test_as_bits_rejects_garbage():
    with pytest.raises(ValueError):
        as_bits("01x0")
    with pytest.raises(ValueError):
        as_bits("")
    with pytest.raises(ValueError):
        as_bits("011", n=4)
    with pytest.raises(ValueError):
        as_bits([0, 2, 1])


def test_cnot_matrix():
    np.testing.assert_allclose(cnot(0, 1, 2), CNOT_01)


def test_embed_places_gate():
    z_on_1 = embed(circuits.PAULI_Z, 1, 2)
    np.testing.assert_allclose(z_on_1, np.kron(np.eye(2), circuits.PAULI_Z))


def test_step_block_validation():
    bits = [0, 1, 1]
    for j in (0, 4, -1):
        with pytest.raises(ValueError):
            StepBlock.from_bits(bits, 1.0, j)
    with pytest.raises(ValueError):
        StepBlock.from_bits(bits, 1.0, 1, decoupled=(4,))
    with pytest.raises(ValueError):
        StepBlock.from_bits(bits, 1.0, 3, decoupled=(0,))
    with pytest.raises(ValueError):
        StepBlock.from_bits(bits, 1.0, 3, decoupled=(1,), corrections=(2,))
    with pytest.raises(ValueError):
        StepBlock.from_bits(bits, 1.0, 2, decoupled=(2,))
    assert StepBlock.from_bits(bits, 1.0).rotated == (True, True, True)
    assert StepBlock.from_bits(bits, 1.0, 2).rotated == (True, False, True)
    block = StepBlock.from_bits(bits, 1.0, 3, decoupled=(1, 2), corrections=(1, 2))
    assert block.rotated == (False, False, False)
    assert block.flips == (True, False, True)
    # past qstate.MAX_QUBITS the dense matrix is refused before allocation
    with pytest.raises(ValueError, match="closed"):
        StepBlock.from_bits([0] * 13, 1.0, 1).dense()


def test_build_parity_unitary_small():
    par = build_parity_unitary(as_bits("10"))
    np.testing.assert_allclose(par.entries, np.kron(circuits.PAULI_X, np.eye(2)))


def test_step_block_unrotated_qubit_is_identity():
    got = StepBlock.from_bits([0, 0], 0.7, 1).dense()
    np.testing.assert_allclose(got, np.kron(np.eye(2), rx(0.7)), atol=1e-14)


def test_controlled_block_structure(rng):
    w = random_unitary(rng, 4)
    cu = controlled(circuits.OperatorMatrix(w, unitary=True)).entries
    np.testing.assert_allclose(cu[:4, :4], np.eye(4), atol=1e-14)
    np.testing.assert_allclose(cu[4:, 4:], w, atol=1e-14)
    np.testing.assert_allclose(cu[:4, 4:], 0, atol=1e-14)


def test_parity_step_block_composition():
    bits = as_bits("011")
    theta = 1.2
    # a tilted axis, so that the rotation and sx do not commute
    block = parity_step_block(bits, theta, j=2, phi=0.3)
    rot = parity_step_block("000", theta, j=2, phi=0.3)
    par = build_parity_unitary(bits)
    np.testing.assert_allclose(block.entries, rot.entries @ par.entries, atol=1e-14)


@pytest.mark.parametrize("theta", [0.3, np.pi / 2, 2.2])
def test_uniform_block_trace_matches_reference(theta):
    """Full-register rotation trace agrees with the raw-numpy build."""
    for n in (1, 2, 3, 4):
        for bits in all_bitstrings(n):
            block = parity_step_block(bits, theta, j=None)
            dense = complex(np.trace(block.entries)) / 2**n
            ref = reference_tau(bits, theta, rotated=set(range(1, n + 1)))
            assert abs(dense - ref) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_step_block_tau_matches_dense_trace(phi):
    """The per-qubit trace product agrees with the trace of the dense block,
    for every probe index and decoupled prefix, with the learner's
    corrections and with stray ones on decoupled 0 bits."""
    theta = 1.1
    for n in (1, 2, 3, 4):
        for bits in all_bitstrings(n):
            bits = bits.tolist()
            for j in range(1, n + 1):
                decoupled = range(1, j)
                correct = {k for k in decoupled if bits[k - 1]}
                stray = set(decoupled) - correct
                for corrections in (correct, set(), set(decoupled), stray):
                    block = StepBlock.from_bits(
                        bits, theta, j, decoupled, corrections, phi=phi
                    )
                    dense = complex(np.trace(block.dense())) / 2**n
                    assert abs(block.tau() - dense) < 1e-12
                    if phi == 0.0 and not corrections:
                        rotated = set(range(j + 1, n + 1))
                        ref = reference_tau(bits, theta, rotated=rotated)
                        assert abs(block.tau() - ref) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_step_block_eigenphases_match_dense_spectrum(phi):
    """The convolved eigenphases, each repeated weight * 2^n times, are the
    eigenvalues of the dense block as a multiset."""
    for block in step_blocks(1.1, phi):
        n = len(block.flips)
        phases, weights = block.eigenphases()
        assert np.all((phases >= 0.0) & (phases < 2 * np.pi))
        assert np.unique(phases).size == phases.size
        counts = weights * 2**n
        assert np.allclose(counts, np.round(counts), atol=1e-9)
        expected = np.repeat(np.exp(1j * phases), np.round(counts).astype(int))
        remaining = list(np.linalg.eigvals(block.dense()))
        assert expected.size == len(remaining)
        for value in expected:
            nearest = int(np.argmin(np.abs(np.array(remaining) - value)))
            assert abs(remaining.pop(nearest) - value) < 1e-9


def test_step_block_eigenphases_at_scale():
    """Polynomial in n: 300 qubits of three kinds (3 unrotated, 295
    rotated, 2 rotated and flipped) give at most 296 * 3 phases, whose
    weighted mean is the normalized trace."""
    bits = [0] * 300
    bits[9] = bits[19] = 1
    block = StepBlock.from_bits(bits, 0.2, 3, decoupled=(1, 2))
    phases, weights = block.eigenphases()
    assert phases.size <= 296 * 3
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    tau = np.sum(weights * np.exp(1j * phases))
    assert abs(tau - block.tau()) < 1e-12 * abs(block.tau())


def test_error_identity_holds():
    assert error_identity_check() < 1e-12
