import itertools
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dqc1lpn import infomeasures, lpn
from dqc1lpn.circuits import (
    StepBlock, as_bits, bits_to_str, ones_mask, require_normal, rx,
)

import dense_reference as qstate
from dense_reference import (
    build_parity_unitary,
    cnot,
    controlled,
    embed,
    block_operator,
    error_identity_check,
)
from conftest import (
    all_bitstrings, qubit_mask, random_unitary, reference_as_bits,
    reference_bits_to_str, reference_eigenphases, reference_ones_mask,
    reference_tau, step_blocks,
)

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
    axis = np.cos(phi) * qstate.PAULI_X + np.sin(phi) * qstate.PAULI_Y
    expected = scipy.linalg.expm(0.5j * theta * axis)
    np.testing.assert_allclose(rx(theta, phi), expected, atol=1e-13)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_rx_inverse(theta):
    np.testing.assert_allclose(rx(theta) @ rx(-theta), np.eye(2), atol=1e-12)


def test_as_bits_roundtrip():
    bits = as_bits("01101")
    assert bits_to_str(bits) == "01101"
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


#: The forms a bit pattern reaches ``as_bits`` in, built from a list of 0/1.
BIT_FORMS = {
    "str": lambda v: "".join(map(str, v)),
    "list": list,
    "tuple": tuple,
    "uint8": lambda v: np.array(v, dtype=np.uint8),
    "bool": lambda v: np.array(v, dtype=bool),
    "int64": lambda v: np.array(v, dtype=np.int64),
}


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=300),
    st.sampled_from(sorted(BIT_FORMS)),
)
def test_bit_conversions_match_reference(values, form):
    s = BIT_FORMS[form](values)
    want = reference_as_bits(s)
    got = as_bits(s)
    assert got.dtype == want.dtype == np.uint8
    np.testing.assert_array_equal(got, want)
    assert bits_to_str(got) == reference_bits_to_str(want)
    assert ones_mask(got) == reference_ones_mask(want)
    if form != "str":
        assert bits_to_str(s) == reference_bits_to_str(s)
        assert ones_mask(s) == reference_ones_mask(s)
    # a fresh array: writing to it leaves the input as it was
    before = BIT_FORMS[form](values)
    got ^= 1
    if isinstance(s, np.ndarray):
        np.testing.assert_array_equal(s, before)
    else:
        assert s == before


@pytest.mark.parametrize(
    "bad",
    [
        "", "012", "01x0", [0, 2], [], [-1, 0],
        np.array([0, 3]), np.array([], dtype=np.uint8),
        np.array([[0, 1], [1, 0]], dtype=np.uint8), [[0, 1], [1, 0]],
    ],
)
def test_as_bits_refusals_match_reference(bad):
    with pytest.raises(ValueError) as want:
        reference_as_bits(bad)
    with pytest.raises(ValueError) as got:
        as_bits(bad)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "bad",
    ["0110", [-1], [2], [0.5]],
    ids=["str", "negative", "two", "half"],
)
def test_bits_to_str_refuses_non_bits(bad):
    """A string is not a bit array (its bytes would read as one number),
    and a value outside {0, 1} must not wrap or truncate into a bit."""
    with pytest.raises(ValueError):
        bits_to_str(bad)


def test_cnot_matrix():
    np.testing.assert_allclose(cnot(0, 1, 2), CNOT_01)


def test_embed_places_gate():
    z_on_1 = embed(qstate.PAULI_Z, 1, 2)
    np.testing.assert_allclose(z_on_1, np.kron(np.eye(2), qstate.PAULI_Z))


def test_step_block_validation():
    bits = [0, 1, 1]
    for j in (0, 4, -1):
        with pytest.raises(ValueError):
            StepBlock.from_bits(bits, 1.0, j)
    # decoupled bits at or past n, negative masks, corrections outside the
    # decoupled set, and a decoupled probe
    for j, decoupled, corrections in (
        (1, qubit_mask((4,)), 0), (1, qubit_mask((9,)), 0),
        (3, -1, 0), (3, -4, 0), (3, 1, -1),
        (3, qubit_mask((1,)), qubit_mask((2,))), (2, qubit_mask((2,)), 0),
    ):
        with pytest.raises(ValueError):
            StepBlock.from_bits(bits, 1.0, j, decoupled, corrections)
    # the constructor refuses rotated or flipped bits at or past n and
    # negative masks, which would give negative kind counts
    for rotated, flips in ((0b1111, 0), (0, 0b1000), (-1, 0), (0, -2)):
        with pytest.raises(ValueError):
            StepBlock(1.0, 3, rotated, flips)
    # and an angle that is not finite, whose trace would be NaN
    for theta, phi in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            StepBlock(theta, 3, 0b011, 0b100, phi)
    assert StepBlock.from_bits(bits, 1.0).rotated == qubit_mask((1, 2, 3))
    assert StepBlock.from_bits(bits, 1.0, 2).rotated == qubit_mask((1, 3))
    block = StepBlock.from_bits(bits, 1.0, 3, qubit_mask((1, 2)), qubit_mask((1, 2)))
    assert block.rotated == 0
    assert block.flips == qubit_mask((1, 3))
    # past circuits.MAX_QUBITS the dense matrix is refused before allocation
    with pytest.raises(ValueError, match="closed"):
        block_operator(StepBlock.from_bits([0] * 13, 1.0, 1))


def test_build_parity_unitary_small():
    par = build_parity_unitary(as_bits("10"))
    np.testing.assert_allclose(par.entries, np.kron(qstate.PAULI_X, np.eye(2)))


def test_step_block_unrotated_qubit_is_identity():
    got = block_operator(StepBlock.from_bits([0, 0], 0.7, 1)).entries
    np.testing.assert_allclose(got, np.kron(np.eye(2), rx(0.7)), atol=1e-14)


def test_controlled_block_structure(rng):
    w = random_unitary(rng, 4)
    cu = controlled(qstate.OperatorMatrix(w, unitary=True)).entries
    np.testing.assert_allclose(cu[:4, :4], np.eye(4), atol=1e-14)
    np.testing.assert_allclose(cu[4:, 4:], w, atol=1e-14)
    np.testing.assert_allclose(cu[:4, 4:], 0, atol=1e-14)


def test_parity_step_block_composition():
    bits = as_bits("011")
    theta = 1.2
    # a tilted axis, so that the rotation and sx do not commute
    block = block_operator(StepBlock.from_bits(bits, theta, 2, phi=0.3))
    rot = block_operator(StepBlock.from_bits(as_bits("000"), theta, 2, phi=0.3))
    par = build_parity_unitary(bits)
    np.testing.assert_allclose(block.entries, rot.entries @ par.entries, atol=1e-14)


@pytest.mark.parametrize("theta", [0.3, np.pi / 2, 2.2])
def test_uniform_block_trace_matches_reference(theta):
    """Full-register rotation trace agrees with the raw-numpy build."""
    for n in (1, 2, 3, 4):
        for bits in all_bitstrings(n):
            block = block_operator(StepBlock.from_bits(bits, theta))
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
                decoupled = (1 << (j - 1)) - 1
                correct = qubit_mask(k for k in range(1, j) if bits[k - 1])
                stray = decoupled ^ correct
                for corrections in (correct, 0, decoupled, stray):
                    block = StepBlock.from_bits(
                        bits, theta, j, decoupled, corrections, phi=phi
                    )
                    dense = complex(np.trace(block_operator(block).entries)) / 2**n
                    assert abs(block.tau() - dense) < 1e-12
                    if phi == 0.0 and not corrections:
                        rotated = set(range(j + 1, n + 1))
                        ref = reference_tau(bits, theta, rotated=rotated)
                        assert abs(block.tau() - ref) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_step_block_eigenphases_match_dense_spectrum(phi):
    """The eigenphases mod pi that discord reads, each repeated
    weight * 2^n times: e^{2il} are the squared eigenvalues of the dense
    block as a multiset."""
    for block in step_blocks(1.1, phi):
        n = block.n
        phases, weights = infomeasures._spectrum(block)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        counts = weights * 2**n
        assert np.array_equal(counts, np.round(counts))
        expected = np.repeat(np.exp(2j * phases), counts.astype(int))
        remaining = list(np.linalg.eigvals(block_operator(block).entries) ** 2)
        assert expected.size == len(remaining)
        for value in expected:
            nearest = int(np.argmin(np.abs(np.array(remaining) - value)))
            assert abs(remaining.pop(nearest) - value) < 1e-9


def test_step_block_eigenphases_at_scale(monkeypatch, rng):
    """At 300 qubits, discord from the spectrum mod pi agrees to 1e-12 with
    discord from the convolved eigenphases of conftest, on random blocks
    of all four kinds, at phi = 0 (one binomial) and phi = 0.3 (a
    lattice)."""
    cases = []
    for phi in (0.0, 0.3) * 25:
        theta = float(rng.uniform(0.0, 2 * np.pi))
        rotated = ones_mask(rng.random(300) < rng.uniform(0.1, 0.9))
        # few flips keep the (r+1)(b+1) lattice at phi = 0.3 small
        flips = ones_mask(rng.random(300) < rng.uniform(0.0, 0.06))
        block = StepBlock(theta, 300, rotated, flips, phi)
        cases += [(block, alpha) for alpha in (0.3, 0.7, 1.0)]
    got = [infomeasures.protocol_discord(block, alpha).discord for block, alpha in cases]
    monkeypatch.setattr(infomeasures, "_spectrum", reference_eigenphases)
    for (block, alpha), value in zip(cases, got):
        want = infomeasures.protocol_discord(block, alpha).discord
        assert abs(value - want) < 1e-12


@pytest.mark.parametrize(
    "theta, phi", [(1.1, 0.0), (1.1, 0.3), (0.0, 0.0), (2.2, np.pi / 2)]
)
def test_step_block_kinds_and_vanishes(theta, phi):
    """The four kind counts are the per-qubit (rotated, flipped) tally, and
    the trace is exactly zero when and only when the block vanishes: a
    bare sx, or at theta = 0 a rotated and flipped qubit."""
    for block in step_blocks(theta, phi):
        pairs = [
            (bool(block.rotated >> k & 1), bool(block.flips >> k & 1))
            for k in range(block.n)
        ]
        kinds = itertools.product((False, True), repeat=2)
        tally = tuple(pairs.count(kind) for kind in kinds)
        assert block.kinds == tally
        assert sum(block.kinds) == block.n
        assert block.vanishes() == (block.tau() == 0)


def _per_qubit_tau(block):
    """tr(block)/2^n as the product of the per-qubit traces, in qubit order."""
    c = math.cos(block.theta / 2.0)
    a = 1j * math.sin(block.theta / 2.0) * math.cos(block.phi)
    tau = 1.0 + 0.0j
    for k in range(block.n):
        rotated, flipped = block.rotated >> k & 1, block.flips >> k & 1
        tau *= (a if flipped else c) if rotated else (0.0 if flipped else 1.0)
    return tau


def test_step_block_tau_matches_per_qubit_product(rng):
    """At n=300 the power form agrees with the per-qubit product to 1e-12
    relative, with every phase i^m mod 4 and with exact zeros."""
    phases = set()
    for _ in range(200):
        theta = float(rng.uniform(-6.0, 6.0))
        rotated = rng.random(300) < rng.uniform(0.05, 0.95)
        flips = rng.random(300) < 0.2
        if rng.random() < 0.8:
            # no bare sx, so the trace does not vanish
            flips = flips & rotated
        block = StepBlock(
            theta, 300, ones_mask(rotated), ones_mask(flips),
            phi=float(rng.uniform(0.0, 1.5)),
        )
        want = _per_qubit_tau(block)
        got = block.tau()
        if want == 0:
            assert block.vanishes() and got == 0
            continue
        assert abs(got - want) <= 1e-12 * abs(want)
        phases.add(block.kinds[3] % 4)
    assert phases == {0, 1, 2, 3}


def test_step_block_underflow_is_not_a_zero():
    """2200 rotated qubits at pi/2: the trace 2^-1100 underflows to 0.0,
    but the block does not vanish, and the closed form refuses it."""
    block = StepBlock.from_bits([0] * 2201, np.pi / 2, 1)
    assert block.tau() == 0 and not block.vanishes()
    with pytest.raises(ValueError, match="2\\^-1022"):
        lpn.closed_form_tau([0] * 2201, np.pi / 2, 1)
    with pytest.raises(ValueError, match="2\\^-1022"):
        require_normal(sys.float_info.min / 2, "x")
    assert require_normal(-sys.float_info.min, "x") == -sys.float_info.min


def test_step_block_spectrum_ignores_qubit_order():
    """Blocks with the same kind counts in another qubit order have the
    same eigenphases and weights, bit for bit."""
    for bits, other in (("0101", "0011"), ("010110", "001101")):
        first = infomeasures._spectrum(StepBlock.from_bits([int(b) for b in bits], 1.3, 1))
        second = infomeasures._spectrum(StepBlock.from_bits([int(b) for b in other], 1.3, 1))
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)


def test_error_identity_holds():
    assert error_identity_check() < 1e-12
