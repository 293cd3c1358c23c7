import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqc1lpn import qstate
from dqc1lpn.circuits import ID2, StepBlock, rx
from dqc1lpn.dqc1 import Dqc1Config
from dqc1lpn.qstate import (
    DensityMatrix,
    KrausSet,
    OperatorMatrix,
    apply_channel,
    apply_unitary,
    partial_trace,
    tensor,
    von_neumann_entropy,
)

from conftest import all_bitstrings, random_density, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

# H2(0.25) to full precision
ENTROPY_QUARTER = 0.8112781244591328

BELL = np.array(
    [
        [0.5, 0, 0, 0.5],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0.5, 0, 0, 0.5],
    ],
    dtype=complex,
)


def test_density_matrix_accepts_valid():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert rho.dim == 2
    assert rho.num_qubits == 1
    assert not rho.entries.flags.writeable


def test_density_matrix_rejects_non_hermitian():
    bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        DensityMatrix(bad)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))


def test_density_matrix_rejects_negative_eigenvalue():
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(bad)


def test_density_matrix_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3, dtype=complex) / 3)


def test_from_pure_bell():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    rho = DensityMatrix.from_pure(vec)
    np.testing.assert_allclose(rho.entries, BELL, atol=1e-15)


def test_maximally_mixed():
    rho = DensityMatrix.maximally_mixed(3)
    np.testing.assert_allclose(rho.entries, np.eye(8) / 8)
    assert von_neumann_entropy(rho) == pytest.approx(3.0, abs=1e-12)


def test_operator_matrix_unitary_flag():
    OperatorMatrix(SX, unitary=True)
    with pytest.raises(ValueError, match="unitary"):
        OperatorMatrix(np.array([[1, 1], [0, 1]], dtype=complex), unitary=True)


def test_kraus_set_completeness():
    half = np.eye(2, dtype=complex) / np.sqrt(2)
    KrausSet([half, half])
    with pytest.raises(ValueError, match="complete"):
        KrausSet([half])


def test_tensor_dims_and_unitarity():
    a = OperatorMatrix(SX, unitary=True)
    b = OperatorMatrix(SZ, unitary=True)
    ab = tensor(a, b)
    assert ab.entries.shape == (4, 4)
    assert ab.unitary
    np.testing.assert_allclose(ab.entries, np.kron(SX, SZ))


def test_tensor_respects_qubit_cap():
    big = DensityMatrix.maximally_mixed(qstate.MAX_QUBITS)
    with pytest.raises(ValueError, match="qubit"):
        tensor(big, DensityMatrix.maximally_mixed(1))


def test_apply_unitary_preserves_spectrum(rng):
    for _ in range(10):
        rho = DensityMatrix(random_density(rng, 2))
        u = OperatorMatrix(random_unitary(rng, 4), unitary=True)
        out = apply_unitary(rho, u)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.entries),
            np.linalg.eigvalsh(rho.entries),
            atol=1e-12,
        )


def test_apply_unitary_rejects_non_unitary(rng):
    rho = DensityMatrix.maximally_mixed(1)
    with pytest.raises(ValueError):
        apply_unitary(rho, OperatorMatrix(np.array([[1, 1], [0, 1]], dtype=complex)))


def test_apply_channel_depolarizing_half():
    # q=1/2 on |0><0| leaves diag(3/4, 1/4)
    q = 0.5
    ops = [
        np.sqrt(1 - 3 * q / 4) * np.eye(2, dtype=complex),
        np.sqrt(q / 4) * SX,
        np.sqrt(q / 4) * np.array([[0, -1j], [1j, 0]]),
        np.sqrt(q / 4) * SZ,
    ]
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    out = apply_channel(rho, KrausSet(ops))
    np.testing.assert_allclose(out.entries, np.diag([0.75, 0.25]), atol=1e-14)


def test_partial_trace_product_state(rng):
    """Tracing a product state returns its factors."""
    a = random_density(rng, 1)
    b = random_density(rng, 2)
    rho = DensityMatrix(np.kron(a, b))
    np.testing.assert_allclose(partial_trace(rho, [0]).entries, a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, [1, 2]).entries, b, atol=1e-12)


def test_partial_trace_bell_is_mixed():
    rho = DensityMatrix(BELL)
    reduced = partial_trace(rho, [0])
    np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_rejects_bad_keep():
    rho = DensityMatrix(BELL)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])


def test_entropy_values():
    pure = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    skewed = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert von_neumann_entropy(skewed) == pytest.approx(ENTROPY_QUARTER, abs=1e-13)


def test_probe_readout_survives_full_depolarization_of_the_data():
    """The readout depends on the data qubits only through the block, so
    depolarizing every data qubit at rate 1 after the block leaves both
    probe quadratures as they were, for every string with n <= 4 and
    every probe bit."""
    for n in (1, 2, 3, 4):
        cfg = Dqc1Config(n=n, alpha=0.7, p=0.2, theta=1.1)
        for bits in all_bitstrings(n):
            for j in range(1, n + 1):
                block = qstate.block_operator(StepBlock.from_bits(bits, cfg.theta, j))
                rho = qstate.run_protocol(cfg, block)
                mixed = qstate.depolarize(rho, 1.0, range(1, n + 1))
                before = qstate.probe_expectations(rho, cfg.p)
                after = qstate.probe_expectations(mixed, cfg.p)
                assert np.allclose(after, before, rtol=0.0, atol=1e-12)


def _random_factor(rng):
    """A 2x2 factor: a rotation, the identity or a random complex matrix
    with signed zeros mixed in, possibly column-swapped."""
    kind = int(rng.integers(3))
    if kind == 0:
        f = rx(float(rng.uniform(-7.0, 7.0)), float(rng.choice([0.0, 0.4])))
    elif kind == 1:
        f = ID2
    else:
        f = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        f.real[rng.random((2, 2)) < 0.3] = rng.choice([0.0, -0.0])
        f.imag[rng.random((2, 2)) < 0.3] = rng.choice([0.0, -0.0])
    return f[:, ::-1] if rng.random() < 0.5 else f


def test_kron_all_is_bitwise_np_kron(rng):
    """kron_all equals the left-associated np.kron chain from [[1+0j]]
    bit for bit, signed zeros included."""
    for _ in range(60):
        factors = [_random_factor(rng) for _ in range(int(rng.integers(0, 7)))]
        got = qstate.kron_all(factors)
        expected = functools.reduce(np.kron, factors, np.array([[1.0 + 0.0j]]))
        assert got.shape == expected.shape
        assert np.array_equal(got.view(float), expected.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(expected.view(float)))


def test_dense_trace_is_bitwise_dense_trace():
    """dense_trace() sums the same diagonal products as the trace of the
    dense block, kron_all(factors()), so the two agree bit for bit, signed
    zeros included (theta 0 and pi give exact zeros, 1e-300 products that
    flush to zero), tilted or not."""
    rng = np.random.default_rng(20)
    thetas = (0.0, np.pi, 1e-300, np.pi / 2)
    for i in range(2000):
        n = int(rng.integers(1, 11))
        theta = thetas[i % 5] if i % 5 < 4 else float(rng.uniform(-7.0, 7.0))
        phi = float(rng.uniform(-4.0, 4.0)) if i % 2 else 0.0
        rotated, flips = (int(m) for m in rng.integers(0, 1 << n, size=2))
        block = StepBlock(theta, n, rotated, flips, phi)
        got = np.array([block.dense_trace()])
        expected = np.array([qstate.kron_all(block.factors()).trace()])
        assert got.dtype == expected.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), block
    # past circuits.MAX_QUBITS the trace is refused as the matrix is
    with pytest.raises(ValueError, match="closed"):
        StepBlock.from_bits([0] * 13, 1.0, 1).dense_trace()


#: The modules the commands run, which build no dense matrix.
RUNTIME_MODULES = (
    "__init__", "__main__", "cli", "lpn", "dqc1", "noise", "infomeasures", "circuits"
)


def _runtime_nodes():
    """(module name, AST node) over every node of the runtime modules."""
    src = Path(qstate.__file__).parent
    for name in RUNTIME_MODULES:
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            yield name, node


def test_runtime_modules_do_not_import_qstate():
    """The dense reference stays out of every module the commands run."""
    importers = []
    for name, node in _runtime_nodes():
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            paths = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("qstate" in path.split(".") for path in paths):
            importers.append(name)
    assert importers == []


def test_package_modules_import_no_private_name_of_another():
    """No module under the package imports a single-underscore name from
    another package module: each private helper serves its own module, and
    a check (the dense discord against ``protocol_discord``) shares no
    private code with what it checks."""
    found = []
    for path in sorted(Path(qstate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "dqc1lpn":
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{path.stem}: {alias.name}")
    assert found == []


def test_cli_import_leaves_qstate_unloaded():
    """The import test above sees only direct imports; a fresh interpreter
    that imports the CLI, as ``python -m dqc1lpn`` does, must not load the
    dense reference through any chain of them."""
    code = "import sys, dqc1lpn.cli; print('dqc1lpn.qstate' in sys.modules)"
    src = Path(qstate.__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "False\n"


def test_runtime_modules_build_no_kronecker_product():
    """The 4^n builder stays in qstate: no module the commands run defines,
    imports or names ``kron_all``, or names ``kron`` (``np.kron``)."""
    found = []
    for name, node in _runtime_nodes():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            ident = node.name
        elif isinstance(node, ast.alias):
            ident = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        else:
            continue
        if ident in ("kron_all", "kron"):
            found.append(f"{name}: {ident}")
    assert found == []
