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

import itertools
import warnings
from typing import Iterable, Sequence

import numpy as np

from . import circuits, dqc1
from .circuits import as_bits
from .dqc1 import Dqc1Config, EstimateRecord


def default_probe_bit(s) -> int | None:
    """Data qubit probed by the diagnostic circuits: the first 0 bit of s,
    or None (uniform rotation) when s is all ones."""
    bits = as_bits(s)
    zeros = np.flatnonzero(bits == 0)
    return int(zeros[0]) + 1 if zeros.size else None


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
    bits = as_bits(s, n=cfg.n)
    q_grid = list(q_grid)
    if not all(0.0 <= dqc1.require_real(q, "mid-circuit rate q") <= 0.2 for q in q_grid):
        raise ValueError("mid-circuit rate q outside [0, 0.2]")
    if not bits.any():
        raise ValueError("all-zero string carries no coupling to damp")
    if j is None:
        j = default_probe_bit(bits)
    block = circuits.StepBlock.from_bits(bits, cfg.theta, j)
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
    bits = as_bits(s, n=cfg.n)
    flips = sorted(dqc1.require_int(k, "every qubit of flip_set") for k in flip_set)
    if flips and (flips[0] < 1 or flips[-1] > cfg.n):
        raise ValueError(f"flip set outside data qubits 1..{cfg.n}")
    for k, after in zip(flips, flips[1:]):
        if k == after:
            raise ValueError(f"phase flip on qubit {k} repeated: two sz on one qubit cancel")
    idle = [k for k in flips if not bits[k - 1]]
    if idle:
        warnings.warn(
            f"phase flips on uncoupled qubits {idle} cannot reach the probe",
            stacklevel=2,
        )
    if j is None:
        j = default_probe_bit(bits)
    block = circuits.StepBlock.from_bits(bits, cfg.theta, j)
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
    A trace that is not exactly zero but falls below 2^-1022 raises
    ValueError.
    """
    bits = as_bits(s)
    if j is None:
        j = default_probe_bit(bits)
    traces = []
    for phi, theta in itertools.product(phi_grid, theta_grid):
        block = circuits.StepBlock.from_bits(bits, theta, j, phi=phi)
        tau = block.tau()
        if not block.vanishes():
            circuits.require_normal(tau, "the predicted trace")
        traces.append(tau)
    return traces
