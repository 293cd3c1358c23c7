"""Dense reference simulator over at most ``circuits.MAX_QUBITS`` qubits.

The commands run from closed forms of the probe-step block
(``circuits.StepBlock``), and neither a module they use nor the package
root imports this one.  It is the one module that builds dense matrices:
the gates, ``kron_all`` and the block's matrix from its 2x2 factors
(``block_operator``).  It is the
commands' n <= 12 cross-check: the dense one-clean-qubit run and its probe
readout (Knill and Laflamme, PRL 81, 5672, 1998), depolarizing channels,
and the discord of any state by grid and compass search, against
which ``infomeasures.protocol_discord``, the discord from the block's
spectrum mod pi (Datta, Shaji and Caves, PRL 100, 050502, 2008), is
checked.

Conventions used across the package:

* qubit 0 is the leftmost (most significant) Kronecker factor;
* everything is dense ``complex128`` and dimensions are powers of two;
* wrapped arrays are frozen after construction, so values can be shared
  between concurrent workers without copying.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .circuits import MAX_QUBITS, StepBlock, as_bits
from .dqc1 import Dqc1Config
from .infomeasures import DiscordResult

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
UNITARITY_TOL = 1e-12
KRAUS_TOL = 1e-12
MIN_EIGENVALUE = -1e-10
#: ``quantum_discord``'s compass search stops once both steps (radians)
#: fall below this, or after this many steps.
COMPASS_TOL = 1e-6
COMPASS_MAX_STEPS = 200

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PROJ_0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _num_qubits(dim: int) -> int:
    k = int(dim).bit_length() - 1
    if dim <= 0 or 2**k != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return k


def _square_complex(entries) -> np.ndarray:
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _freeze(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def _require_unitary(mat: np.ndarray, message: str) -> None:
    """Raise ValueError(message with the residue) unless U^dag U = 1 to
    within ``UNITARITY_TOL``."""
    res = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
    if res > UNITARITY_TOL:
        raise ValueError(message.format(res))


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over k qubits.

    Construction validates Hermiticity and trace to 1e-12 and the spectrum
    down to ``MIN_EIGENVALUE``.  Internal code that produces states through
    trace-preserving maps passes ``validate=False`` to skip the (eigenvalue)
    recheck; anything built from raw user input keeps the default.
    """

    __slots__ = ("entries", "dim", "num_qubits")

    def __init__(self, entries, *, validate: bool = True):
        mat = _square_complex(entries)
        dim = mat.shape[0]
        k = _num_qubits(dim)
        if validate:
            herm = np.abs(mat - mat.conj().T).max()
            if herm > HERMITICITY_TOL:
                raise ValueError(f"matrix is not Hermitian (residue {herm:.3e})")
            tr = mat.trace()
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"trace {tr} differs from one")
            low = np.linalg.eigvalsh(mat).min()
            if low < MIN_EIGENVALUE:
                raise ValueError(f"negative eigenvalue {low:.3e}")
        self.entries = _freeze(mat)
        self.dim = dim
        self.num_qubits = k

    @classmethod
    def from_pure(cls, vector) -> "DensityMatrix":
        vec = np.asarray(vector, dtype=complex).ravel()
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("zero vector has no state")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()), validate=False)

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        dim = 2**num_qubits
        return cls(np.eye(dim, dtype=complex) / dim, validate=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(dim={self.dim})"


class OperatorMatrix:
    """Square complex matrix over k qubits, optionally flagged unitary."""

    __slots__ = ("entries", "dim", "num_qubits", "unitary")

    def __init__(self, entries, *, unitary: bool = False, validate: bool = True):
        mat = _square_complex(entries)
        dim = mat.shape[0]
        k = _num_qubits(dim)
        if validate and unitary:
            _require_unitary(mat, "matrix flagged unitary fails U^dag U = 1 ({:.3e})")
        self.entries = _freeze(mat)
        self.dim = dim
        self.num_qubits = k
        self.unitary = bool(unitary)

    def __repr__(self) -> str:  # pragma: no cover
        tag = ", unitary" if self.unitary else ""
        return f"OperatorMatrix(dim={self.dim}{tag})"


class KrausSet:
    """Complete set of Kraus operators: sum_i K_i^dag K_i = 1 within 1e-12."""

    __slots__ = ("operators", "dim")

    def __init__(self, operators: Sequence, *, validate: bool = True):
        ops = [np.array(op, dtype=complex) for op in operators]
        if not ops:
            raise ValueError("empty Kraus set")
        dim = ops[0].shape[0]
        for op in ops:
            if op.ndim != 2 or op.shape != (dim, dim):
                raise ValueError("Kraus operators must share one square shape")
        if validate:
            acc = sum(op.conj().T @ op for op in ops)
            res = np.abs(acc - np.eye(dim)).max()
            if res > KRAUS_TOL:
                raise ValueError(f"Kraus completeness violated (residue {res:.3e})")
        self.operators = tuple(_freeze(op) for op in ops)
        self.dim = dim


def tensor(a, b):
    """Kronecker product of two states or two operators, `a` leftmost.

    Qubit 0 of the result is qubit 0 of `a`; tensoring past ``MAX_QUBITS``
    total qubits is refused.
    """
    if type(a) is not type(b) or not isinstance(a, (DensityMatrix, OperatorMatrix)):
        raise TypeError("tensor expects two DensityMatrix or two OperatorMatrix arguments")
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise ValueError(
            f"tensor would span {a.num_qubits + b.num_qubits} qubits "
            f"(limit {MAX_QUBITS})"
        )
    flags = {"unitary": a.unitary and b.unitary} if isinstance(a, OperatorMatrix) else {}
    return type(a)(np.kron(a.entries, b.entries), validate=False, **flags)


def apply_unitary(rho: DensityMatrix, u: OperatorMatrix) -> DensityMatrix:
    """Conjugate `rho` by the unitary `u`; spectrum and trace are preserved."""
    if rho.dim != u.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, operator {u.dim}")
    if not u.unitary:
        _require_unitary(u.entries, "operator is not unitary (residue {:.3e})")
    out = u.entries @ rho.entries @ u.entries.conj().T
    return DensityMatrix(out, validate=False)


def apply_channel(rho: DensityMatrix, kraus: KrausSet) -> DensityMatrix:
    """Apply the channel rho -> sum_i K_i rho K_i^dag."""
    if rho.dim != kraus.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, Kraus {kraus.dim}")
    out = np.zeros_like(rho.entries)
    for op in kraus.operators:
        out = out + op @ rho.entries @ op.conj().T
    return DensityMatrix(out, validate=False)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not listed in `keep`.

    Kept qubits retain their relative order.  `keep` must be a non-empty
    subset of ``range(rho.num_qubits)``.
    """
    kept = sorted(set(int(q) for q in keep))
    k = rho.num_qubits
    if not kept:
        raise ValueError("keep set is empty")
    if kept[0] < 0 or kept[-1] >= k:
        raise ValueError(f"keep set {kept} outside qubits 0..{k - 1}")
    traced = [q for q in range(k) if q not in kept]
    tens = rho.entries.reshape([2] * (2 * k))
    for count, q in enumerate(traced):
        # axes shift down as earlier qubits are contracted away
        live = k - count
        tens = np.trace(tens, axis1=q - count, axis2=live + q - count)
    dim = 2 ** len(kept)
    return DensityMatrix(tens.reshape(dim, dim), validate=False)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum_i lam_i log2 lam_i with eigenvalues clipped to [0, 1]."""
    lam = np.clip(np.linalg.eigvalsh(rho.entries), 0.0, 1.0)
    pos = lam[lam > 0]
    return float(-(pos * np.log2(pos)).sum())


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Left-associated Kronecker product of 2x2 factors, starting from
    [[1+0j]].  Each step writes out * f[r, c] into the (r, c) slots of a
    preallocated (m, 2, m, 2) array, the same products as ``np.kron`` (so
    the same bits, signed zeros included) without its strided copies."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        m = out.shape[0]
        res = np.empty((m, 2, m, 2), dtype=np.result_type(out, f))
        for r in range(2):
            for c in range(2):
                np.multiply(out, f[r, c], out=res[:, r, :, c])
        out = res.reshape(2 * m, 2 * m)
    return out


def block_operator(block: StepBlock) -> OperatorMatrix:
    """The 2^n x 2^n matrix of a probe-step block, ``kron_all`` of its
    factors; refused past ``MAX_QUBITS`` (``StepBlock.factors``)."""
    return OperatorMatrix(kron_all(block.factors()), unitary=True, validate=False)


def embed(gate: np.ndarray, qubit: int, total: int) -> np.ndarray:
    """Single-qubit `gate` on `qubit` (0-based), identity elsewhere."""
    if not 0 <= qubit < total:
        raise ValueError(f"qubit {qubit} outside 0..{total - 1}")
    left = np.eye(2**qubit, dtype=complex)
    right = np.eye(2 ** (total - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, gate), right)


def cnot(control: int, target: int, total: int) -> np.ndarray:
    """Dense CNOT on a `total`-qubit register."""
    if control == target:
        raise ValueError("control and target coincide")
    return embed(PROJ_0, control, total) + embed(PROJ_1, control, total) @ embed(
        PAULI_X, target, total
    )


def build_parity_unitary(s) -> OperatorMatrix:
    """Tensor product of sx on every data qubit with s_k = 1.

    Self-inverse, and traceless unless s is all zeros.
    """
    bits = as_bits(s)
    # every qubit decoupled and none corrected: no rotation, bare couplings
    return block_operator(StepBlock.from_bits(bits, 0.0, decoupled=(1 << bits.size) - 1))


def controlled(u: OperatorMatrix) -> OperatorMatrix:
    """Block-diagonal [1, u]: apply `u` to the data register when the probe
    (most significant qubit) is set."""
    if not u.unitary:
        _require_unitary(u.entries, "controlled block is not unitary (residue {:.3e})")
    dim = u.dim
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    out[:dim, :dim] = np.eye(dim)
    out[dim:, dim:] = u.entries
    return OperatorMatrix(out, unitary=True, validate=False)


def error_identity_check() -> float:
    """Check the phase-error propagation identity on two qubits.

    A sz after the controlled-x block (probe controls, data qubit is the
    target) equals the same circuit preceded by sx on the probe and sz on
    the data qubit, once the probe Hadamard is accounted for:

        (1 x sz) . CNOT . (H x 1) = CNOT . (H x 1) . (sx x sz)

    Returns the largest entrywise deviation between the two sides.
    """
    cx = cnot(0, 1, 2)
    lhs = embed(PAULI_Z, 1, 2) @ cx @ embed(HADAMARD, 0, 2)
    rhs = cx @ embed(HADAMARD, 0, 2) @ np.kron(PAULI_X, PAULI_Z)
    return float(np.abs(lhs - rhs).max())


def initial_state(cfg: Dqc1Config) -> DensityMatrix:
    """Probe with polarization alpha tensored with n maximally mixed qubits."""
    probe = DensityMatrix(
        np.diag([(1.0 + cfg.alpha) / 2.0, (1.0 - cfg.alpha) / 2.0]).astype(complex),
        validate=False,
    )
    if cfg.n == 0:
        return probe
    return tensor(probe, DensityMatrix.maximally_mixed(cfg.n))


def run_protocol(cfg: Dqc1Config, w: OperatorMatrix) -> DensityMatrix:
    """Apply H on the probe, then the controlled block, to the initial state.

    The output is exactly

        (1 + alpha (|0><1| x w^dag + |1><0| x w)) / 2^(n+1).
    """
    if w.num_qubits != cfg.n:
        raise ValueError(f"block spans {w.num_qubits} qubits, config says {cfg.n}")
    had = OperatorMatrix(embed(HADAMARD, 0, cfg.n + 1), unitary=True, validate=False)
    return apply_unitary(apply_unitary(initial_state(cfg), had), controlled(w))


def probe_expectations(rho: DensityMatrix, p: float = 0.0) -> tuple[float, float]:
    """Measured (<sx>, <sy>) on qubit 0 of a register state, after readout
    depolarization at rate p: <sx> + i <sy> = 2 (1-p) tr(rho_10), with
    rho_10 the probe's |1><0| block."""
    half = rho.dim // 2
    if half == 0:
        raise ValueError("state holds no probe qubit")
    z = 2.0 * (1.0 - p) * complex(rho.entries[half:, :half].trace())
    return z.real, z.imag


def depolarizing_kraus(rate: float) -> KrausSet:
    """Single-qubit depolarizing channel of strength `rate` in Kraus form."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("depolarizing rate outside [0, 1]")
    return KrausSet(
        [
            np.sqrt(1.0 - 3.0 * rate / 4.0) * np.eye(2),
            np.sqrt(rate / 4.0) * PAULI_X,
            np.sqrt(rate / 4.0) * PAULI_Y,
            np.sqrt(rate / 4.0) * PAULI_Z,
        ]
    )


def depolarize(rho: DensityMatrix, rate: float, targets: Iterable[int]) -> DensityMatrix:
    """Depolarize each target qubit independently at the given rate."""
    targets = sorted(set(int(t) for t in targets))
    total = rho.num_qubits
    if targets and (targets[0] < 0 or targets[-1] >= total):
        raise ValueError(f"targets {targets} outside qubits 0..{total - 1}")
    kraus = depolarizing_kraus(rate)
    for t in targets:
        full = KrausSet(
            [embed(op, t, total) for op in kraus.operators], validate=False
        )
        rho = apply_channel(rho, full)
    return rho


def rel_entropy_coherence(rho: DensityMatrix) -> float:
    """Relative entropy of coherence S(diag(rho)) - S(rho) in the
    computational basis."""
    diag = np.clip(rho.entries.diagonal().real, 0.0, 1.0)
    pos = diag[diag > 0]
    s_diag = float(-(pos * np.log2(pos)).sum())
    return max(0.0, s_diag - von_neumann_entropy(rho))


def mutual_information(rho: DensityMatrix) -> float:
    """I = S(rho_probe) + S(rho_rest) - S(rho), with the probe on qubit 0."""
    return (
        von_neumann_entropy(partial_trace(rho, keep={0}))
        + von_neumann_entropy(partial_trace(rho, keep=range(1, rho.num_qubits)))
        - von_neumann_entropy(rho)
    )


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose over the probe, qubit 0.

    Nonnegative values mean the probe-register split passes the
    positive-partial-transpose entanglement test.
    """
    half = rho.dim // 2
    swapped = rho.entries.reshape(2, half, 2, half).transpose(2, 1, 0, 3)
    return float(np.linalg.eigvalsh(swapped.reshape(2 * half, 2 * half)).min())


def _probe_blocks(rho: DensityMatrix) -> np.ndarray:
    """(2, 2, D, D) array b with b[i, j] = <i|_probe rho |j>_probe, the
    probe being qubit 0."""
    if rho.num_qubits < 2:
        raise ValueError("state must hold the probe plus at least one qubit")
    half = rho.dim // 2
    return rho.entries.reshape(2, half, 2, half).transpose(0, 2, 1, 3)


def _conditional_entropy_batch(
    thetas: np.ndarray, phis: np.ndarray, blocks: np.ndarray, rho_data: np.ndarray
) -> np.ndarray:
    """sum_k p_k S(rho_data|k) for a batch of measurement directions.

    The post-measurement data state for projector |v><v| is
    sum_ij v_j conj(v_i) b[i, j]; the complementary outcome is
    rho_data minus that, so one einsum per batch covers both branches.
    """
    v0 = np.cos(thetas / 2.0).astype(complex)
    v1 = np.sin(thetas / 2.0) * np.exp(1j * phis)
    coef = np.empty(thetas.shape + (2, 2), dtype=complex)
    for i, vi in enumerate((v0, v1)):
        for jj, vj in enumerate((v0, v1)):
            coef[..., i, jj] = vj * np.conj(vi)
    sig_plus = np.einsum("...ij,ijab->...ab", coef, blocks)
    sig_minus = rho_data - sig_plus
    out = np.zeros(thetas.shape)
    for sig in (sig_plus, sig_minus):
        lam = np.linalg.eigvalsh(sig)
        prob = lam.sum(axis=-1)
        lam = np.clip(lam, 0.0, None)
        norm = lam / np.maximum(prob, 1e-300)[..., None]
        ent = -(norm * np.log2(np.where(norm > 0, norm, 1.0))).sum(axis=-1)
        out += np.where(prob > 1e-15, prob * ent, 0.0)
    return out


def quantum_discord(
    rho: DensityMatrix, *, grid_shape: tuple[int, int] = (64, 128)
) -> DiscordResult:
    """Discord of `rho` with the measurement on the probe, qubit 0.

    Grid search over (theta, phi) on the Bloch sphere, then a compass
    search from the best grid point: each step evaluates theta +- h_t
    (clipped to [0, pi]) and phi +- h_p in one batch and moves to the
    lowest if it is strictly lower, else halves both steps, which start
    at the grid spacing.  ``iterations`` counts these evaluations.
    """
    blocks = _probe_blocks(rho)
    rho_data = blocks[0, 0] + blocks[1, 1]
    s_probe = von_neumann_entropy(partial_trace(rho, keep={0}))
    s_full = von_neumann_entropy(rho)

    nt, np_ = grid_shape
    if nt < 2 or np_ < 2:
        raise ValueError("grid must hold at least 2 points per axis")
    thetas = np.linspace(0.0, math.pi, nt)
    phis = np.linspace(0.0, 2.0 * math.pi, np_, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    values = _conditional_entropy_batch(tg.ravel(), pg.ravel(), blocks, rho_data)
    best = int(values.argmin())
    t_best = float(tg.ravel()[best])
    p_best = float(pg.ravel()[best])
    f_best = float(values[best])

    h_t = math.pi / (nt - 1)
    h_p = 2.0 * math.pi / np_
    evals = 0
    for _ in range(COMPASS_MAX_STEPS):
        if h_t < COMPASS_TOL and h_p < COMPASS_TOL:
            break
        t_try = np.array(
            [min(math.pi, t_best + h_t), max(0.0, t_best - h_t), t_best, t_best]
        )
        p_try = np.array([p_best, p_best, p_best + h_p, p_best - h_p]) % (2.0 * math.pi)
        f_try = _conditional_entropy_batch(t_try, p_try, blocks, rho_data)
        evals += 4
        k = int(f_try.argmin())
        if f_try[k] < f_best:
            t_best, p_best, f_best = float(t_try[k]), float(p_try[k]), float(f_try[k])
        else:
            h_t /= 2.0
            h_p /= 2.0

    discord = s_probe - s_full + f_best
    if discord < -1e-9:
        raise RuntimeError(f"discord came out {discord:.3e}; optimizer failed")
    return DiscordResult(
        discord=max(0.0, discord),
        measurement_theta=t_best,
        measurement_phi=p_best,
        iterations=evals,
    )
