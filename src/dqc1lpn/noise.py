"""Error models and diagnostic experiments for the probe-readout protocol.

The protocol tolerates any unital noise on the data register before the
parity couplings (the register is maximally mixed) and after the
rotation (the readout only touches the probe).  Errors in between do
matter: a phase flip on a coupled data qubit propagates to a bit flip on
the probe input, and depolarization at rate q on each data qubit damps
the probe signal by (1-q) per coupled qubit.

Both mid-circuit experiments apply that corruption to the closed-form
trace of the probe-step block (``circuits.StepBlock.tau``), and the
tilted-axis sweep reads that trace alone, so all three build no density
matrix and run at any n.  The depolarizing channel on a dense state,
against which the damping is checked, is in ``tests/dense_reference.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from typing import Iterable, Sequence

from . import circuits, dqc1
from .dqc1 import Dqc1Config, EstimateRecord


def _read(s, theta: float, n: int | None = None) -> circuits.StepBlock:
    """The one read of the bit pattern `s`: its block with every qubit
    rotated by theta.  A pattern that is not `n` bits long is refused, with
    the message of ``as_bits``."""
    block = circuits.StepBlock.from_bits(s, theta)
    if n is not None and block.n != n:
        raise ValueError(f"expected {n} bits, got {block.n}")
    return block


def _first_zero(block: circuits.StepBlock) -> int | None:
    """The first 0 bit of the pattern that `block` was read from (its lowest
    clear flips bit), or None when every bit is 1."""
    j = (~block.flips & (block.flips + 1)).bit_length()
    return j if j <= block.n else None


def _probing(block: circuits.StepBlock, j: int | None) -> circuits.StepBlock:
    """`block` from ``_read`` with probe bit j left unrotated; by default
    the first 0 bit, and no probe (uniform rotation) when s is all ones."""
    probe = circuits.probe_mask(_first_zero(block) if j is None else j, block.n)
    return dataclasses.replace(block, rotated=block.rotated & ~probe)


def midcircuit_noise_sweep(
    s, cfg: Dqc1Config, q_grid: Iterable[float], *, j: int | None = None
) -> list[float]:
    """Signal ratio under data depolarization between couplings and
    rotation, at each rate q of `q_grid`.

    Depolarization at rate q is unital and maps each coupling sx to
    (1-q) sx, so every data qubit depolarized in the middle of the probe
    step damps the step block's trace by (1-q) per coupled qubit: the
    ratio of |<sx> + i <sy>| with and without noise is (1-q)^m for m
    coupled qubits.  After s is parsed, every rate of the grid is checked
    to be a real number in [0, 0.2]; then an all-zero s, and a noiseless
    signal that is exactly zero (the block vanishes, or alpha = 0), are
    refused; then a ratio below 2^-1022.
    """
    block = _read(s, cfg.theta, cfg.n)
    q_grid = dqc1.require_list(q_grid, "q_grid")
    if not all(0.0 <= dqc1.require_real(q, "mid-circuit rate q") <= 0.2 for q in q_grid):
        raise ValueError("mid-circuit rate q outside [0, 0.2]")
    if not block.flips:
        raise ValueError("all-zero string carries no coupling to damp")
    block = _probing(block, j)
    if block.vanishes() or cfg.alpha == 0.0:
        raise ValueError(
            "noiseless signal vanishes; pick a probe bit with s_j = 0, "
            "alpha > 0 and an angle with nonzero rotation traces"
        )
    coupled = block.flips.bit_count()
    return [circuits.require_normal((1.0 - q) ** coupled, "the signal ratio") for q in q_grid]


def phase_flip_parity_experiment(
    s, cfg: Dqc1Config, flip_set: Iterable[int], *, j: int | None = None
) -> EstimateRecord:
    """Deterministic sz insertions on data qubits between couplings and
    rotation; returns the analytic expectations of the corrupted circuit.

    A sz on data qubit k conjugates its coupling sx^{s_k} into
    (-1)^{s_k} sx^{s_k}, so each flip on a coupled (s_k = 1) qubit
    propagates a bit flip to the probe input: an even number cancels, an
    odd number flips the sign of the step block's trace.  Flips on
    uncoupled qubits do nothing and are flagged with a warning.  A qubit
    that is not an integer, a repeated qubit, or a readout that is not
    exactly zero but below 2^-1022, raises ValueError.
    """
    block = _read(s, cfg.theta, cfg.n)
    qubits = dqc1.require_list(flip_set, "flip_set")
    flips = sorted(dqc1.require_int(k, "every qubit of flip_set") for k in qubits)
    if flips and (flips[0] < 1 or flips[-1] > cfg.n):
        raise ValueError(f"flip set outside data qubits 1..{cfg.n}")
    for k, after in zip(flips, flips[1:]):
        if k == after:
            raise ValueError(f"phase flip on qubit {k} repeated: two sz on one qubit cancel")
    idle = [k for k in flips if not block.flips >> (k - 1) & 1]
    if idle:
        warnings.warn(
            f"phase flips on uncoupled qubits {idle} cannot reach the probe",
            stacklevel=2,
        )
    block = _probing(block, j)
    tau = block.tau()
    if (len(flips) - len(idle)) % 2:
        tau = -tau
    ex, ey = dqc1.expectations_from_tau(cfg.alpha, cfg.p, tau)
    if cfg.alpha and not block.vanishes():
        circuits.require_normal(complex(ex, ey), "the probe readout")
    # + 0.0 turns the negative zero of a vanishing component into 0.0
    return EstimateRecord(ex=ex + 0.0, ey=ey + 0.0, se_x=0.0, se_y=0.0)


def systematic_error_sweep(
    s, phi_grid: Sequence[float], theta_grid: Sequence[float], *, j: int | None = None
) -> list[complex]:
    """Normalized trace of the probe-step block under a tilted rotation axis,
    the block's closed form ``StepBlock.tau``, at each (phi, theta) of
    ``itertools.product(phi_grid, theta_grid)``, in that order.

    Each of the m coupled qubits rotated about the tilted axis picks up one
    factor of cos(phi), so the signal dies at phi = pi/2 whenever m >= 1.
    Amplitude (theta) miscalibration is covered by the theta axis of the
    grid: the trace formula holds at whatever angle was actually applied.
    A grid that is not a collection, or a trace that is not exactly zero
    but falls below 2^-1022, raises ValueError.
    """
    grids = dqc1.require_list(phi_grid, "phi_grid"), dqc1.require_list(theta_grid, "theta_grid")
    # s is read once; each grid point is that block at another angle and axis
    base = _probing(_read(s, 0.0), j)
    traces = []
    for phi, theta in itertools.product(*grids):
        block = dataclasses.replace(base, theta=theta, phi=phi)
        tau = block.tau()
        if not block.vanishes():
            circuits.require_normal(tau, "the predicted trace")
        traces.append(tau)
    return traces
