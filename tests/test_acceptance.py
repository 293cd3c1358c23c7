"""Acceptance gate: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly on its own, so a plain `pytest` run is enough
to gate a release.
"""

import itertools
import math
import time

import numpy as np

from dqc1lpn import circuits, cli, infomeasures, lpn, noise
from dqc1lpn.circuits import as_bits
from dqc1lpn.dqc1 import Dqc1Config
from dqc1lpn.lpn import BudgetParams

import dense_reference as qstate
from conftest import all_bitstrings
from dense_reference import DensityMatrix, partial_trace

HALF_PI = math.pi / 2
THETAS = (0.3, HALF_PI, 2.2)


def _verdict(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _uniform_formula(m, n, theta):
    return (1j * math.sin(theta / 2)) ** m * math.cos(theta / 2) ** (n - m)


def test_criterion_01_trace_formula():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        for bits in all_bitstrings(n):
            for theta in THETAS:
                block = qstate.block_operator(circuits.StepBlock.from_bits(bits, theta))
                dense = complex(np.trace(block.entries)) / 2**n
                closed = _uniform_formula(int(bits.sum()), n, theta)
                worst = max(worst, abs(dense - closed))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _verdict(
        1,
        "closed-form trace matches dense product for all s, n<=5",
        ok,
        f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_per_bit_discrimination():
    worst = 0.0
    zero_violations = 0
    for n in range(1, 6):
        for bits in all_bitstrings(n):
            for j in range(1, n + 1):
                for theta in THETAS:
                    block = qstate.block_operator(circuits.StepBlock.from_bits(bits, theta, j))
                    dense = complex(np.trace(block.entries)) / 2**n
                    if bits[j - 1]:
                        if abs(dense) >= 1e-12:
                            zero_violations += 1
                    else:
                        m = int(bits.sum())
                        expected = (1j * math.sin(theta / 2)) ** m * math.cos(
                            theta / 2
                        ) ** (n - m - 1)
                        worst = max(worst, abs(dense - expected))
    ok = zero_violations == 0 and worst < 1e-10
    _verdict(
        2,
        "skip-one trace vanishes iff the probed bit is set",
        ok,
        f"zero violations={zero_violations}, worst={worst:.2e}",
    )


def test_criterion_03_gap_laws():
    worst_plain = 0.0
    worst_dec = 0.0
    for n in range(1, 7):
        for bits in all_bitstrings(n):
            for j in range(1, n + 1):
                low, high = bits.copy(), bits.copy()
                low[j - 1], high[j - 1] = 0, 1
                m = int(low.sum())
                gap = lpn.closed_form_tau(low, HALF_PI, j) - lpn.closed_form_tau(
                    high, HALF_PI, j
                )
                predicted = 1j**m * math.sqrt(0.5) ** (n - 1)
                worst_plain = max(worst_plain, abs(gap - predicted))

                dec = tuple(range(1, j))
                gap_dec = lpn.closed_form_tau(
                    low, HALF_PI, j, decoupled=dec
                ) - lpn.closed_form_tau(high, HALF_PI, j, decoupled=dec)
                worst_dec = max(
                    worst_dec, abs(abs(gap_dec) - math.sqrt(0.5) ** (n - j))
                )
    ok = worst_plain < 1e-12 and worst_dec < 1e-12
    _verdict(
        3,
        "per-bit gap is i^m (1/sqrt2)^{n-1}, rising to (1/sqrt2)^{n-j} decoupled",
        ok,
        f"plain={worst_plain:.2e}, decoupled={worst_dec:.2e}",
    )


def test_criterion_04_end_to_end_learning():
    start = time.perf_counter()
    analytic_fails = 0
    for n in range(1, 6):
        cfg = Dqc1Config(n=n, alpha=1.0, p=0.0, theta=HALF_PI, backend="dense")
        budget = BudgetParams(delta=0.01, L=1000)
        for bits in all_bitstrings(n):
            res = lpn.learn(
                lpn.make_oracle(bits, cfg), cfg, budget, fixed_queries=1
            )
            analytic_fails += int(not np.array_equal(res.s_hat, bits))
    analytic_elapsed = time.perf_counter() - start

    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2024)))
    wins = 0
    for _ in range(100):
        bits = gen.integers(0, 2, size=3, dtype=np.uint8)
        cfg = Dqc1Config(
            n=3, alpha=1.0, p=0.0, theta=HALF_PI,
            backend="sampled", seed=int(gen.integers(2**32)),
        )
        budget = BudgetParams(delta=0.01, L=1000)
        res = lpn.learn(
            lpn.make_oracle(bits, cfg), cfg, budget, fixed_queries=100
        )
        wins += int(np.array_equal(res.s_hat, bits))
    ok = analytic_fails == 0 and analytic_elapsed < 60.0 and wins >= 99
    _verdict(
        4,
        "learner is exact analytically (n<=5) and >=99/100 sampled at n=3",
        ok,
        f"analytic fails={analytic_fails} in {analytic_elapsed:.1f}s, sampled {wins}/100",
    )


def test_criterion_05_readout_depolarization():
    worst = 0.0
    for s in ("01", "0110"):
        bits = as_bits(s)
        cfg = Dqc1Config(n=bits.size, alpha=0.8, p=0.0, theta=1.1)
        block = qstate.block_operator(circuits.StepBlock.from_bits(bits, 1.1))
        rho = qstate.run_protocol(cfg, block)
        clean = qstate.probe_expectations(rho)
        for p in (0.25, 0.5, 0.9):
            noisy = qstate.probe_expectations(qstate.depolarize(rho, p, [0]))
            worst = max(
                worst,
                abs(noisy[0] - (1 - p) * clean[0]),
                abs(noisy[1] - (1 - p) * clean[1]),
            )
    ok = worst < 1e-10
    _verdict(
        5,
        "probe depolarization rescales both quadratures by exactly 1-p",
        ok,
        f"worst={worst:.2e}",
    )


def test_criterion_06_error_propagation():
    identity_dev = qstate.error_identity_check()

    bits = as_bits("0110")
    cfg = Dqc1Config(n=4, alpha=1.0, p=0.0, theta=HALF_PI)
    clean = noise.phase_flip_parity_experiment(bits, cfg, ())
    even = noise.phase_flip_parity_experiment(bits, cfg, (2, 3))
    odd = noise.phase_flip_parity_experiment(bits, cfg, (2,))
    even_dev = max(abs(even.ex - clean.ex), abs(even.ey - clean.ey))
    odd_dev = max(abs(odd.ex + clean.ex), abs(odd.ey + clean.ey))

    mid_worst = 0.0
    mid_bits = as_bits("01")
    mid_cfg = Dqc1Config(n=2, alpha=1.0, p=0.0, theta=HALF_PI)
    for q in (0.0, 0.01, 0.03, 0.05):
        ratio = noise.midcircuit_noise_sweep(mid_bits, mid_cfg, [q])[0]
        mid_worst = max(mid_worst, abs(ratio - (1 - q)))
        assert abs(ratio - (1 - q)) <= 3 * q**2 + 1e-12

    ok = identity_dev < 1e-12 and even_dev < 1e-12 and odd_dev < 1e-12
    _verdict(
        6,
        "phase errors commute through as sign flips; even sets cancel",
        ok,
        f"identity={identity_dev:.2e}, even={even_dev:.2e}, odd={odd_dev:.2e}, "
        f"mid-circuit worst={mid_worst:.2e}",
    )


def test_criterion_07_systematic_tilt():
    """The sweep's closed form against the trace summed over the tilted
    block's dense diagonal, at every grid point."""
    s = "0110"
    bits = as_bits(s)
    phis = [0.0, 0.1 * math.pi, 0.2 * math.pi, 0.3 * math.pi, 0.4 * math.pi]
    thetas = [0.3, 0.8, HALF_PI, 2.0, 2.2]
    taus = noise.systematic_error_sweep(bits, phis, thetas)
    # the default probe is the first 0 bit
    j = s.index("0") + 1
    worst = max(
        abs(tau - circuits.StepBlock.from_bits(bits, theta, j, phi=phi).dense_trace() / 2**4)
        for (phi, theta), tau in zip(itertools.product(phis, thetas), taus)
    )
    ok = len(taus) == 25 and worst < 1e-10
    _verdict(
        7,
        "tilted rotations damp the trace by cos(phi) per coupled qubit",
        ok,
        f"worst={worst:.2e} over 5x5 grid",
    )


def test_criterion_08_information_measures():
    def protocol_state(bits, theta, alpha, j=1):
        cfg = Dqc1Config(n=bits.size, alpha=alpha, p=0.0, theta=theta)
        block = qstate.block_operator(circuits.StepBlock.from_bits(bits, theta, j))
        return qstate.run_protocol(cfg, block)

    def discord(bits, theta, alpha, j=1):
        block = circuits.StepBlock.from_bits(bits, theta, j)
        return infomeasures.protocol_discord(block, alpha).discord

    # degenerate angles and the bare controlled-flip circuit stay classical
    worst_zero = 0.0
    for s in ("01", "011"):
        bits = as_bits(s)
        bare = circuits.StepBlock.from_bits(bits, 0.0, decoupled=(1 << bits.size) - 1)
        worst_zero = max(worst_zero, infomeasures.protocol_discord(bare, 0.7).discord)
        for theta in (0.0, math.pi):
            worst_zero = max(worst_zero, discord(bits, theta, 0.7))

    coupled = [
        discord(as_bits("1" + "".join(tail)), HALF_PI, 0.6)
        for tail in itertools.product("01", repeat=2)
    ]
    spread = max(coupled) - min(coupled)

    worst_dc = 0.0
    worst_slack = -1.0
    for n in (1, 2, 3):
        for bits in all_bitstrings(n):
            for theta in THETAS:
                for alpha in (0.3, 0.7, 1.0):
                    rho = protocol_state(bits, theta, alpha)
                    tau = lpn.closed_form_tau(bits, theta, 1)
                    dc = infomeasures.coherence_consumption(alpha, abs(tau))
                    before = qstate.rel_entropy_coherence(
                        DensityMatrix(
                            np.array(
                                [[0.5, alpha / 2], [alpha / 2, 0.5]], dtype=complex
                            )
                        )
                    )
                    after = qstate.rel_entropy_coherence(
                        partial_trace(rho, [0])
                    )
                    worst_dc = max(worst_dc, abs((before - after) - dc))
                    disc = discord(bits, theta, alpha)
                    worst_slack = max(worst_slack, disc - dc)

    worst_ppt = math.inf
    for n in range(1, 5):
        for bits in all_bitstrings(n):
            rho = protocol_state(bits, HALF_PI, 0.5)
            worst_ppt = min(worst_ppt, qstate.ppt_min_eigenvalue(rho))

    ok = (
        worst_zero < 1e-6
        and spread < 1e-6
        and worst_dc < 1e-10
        and worst_slack < 1e-5
        and worst_ppt >= -1e-10
    )
    _verdict(
        8,
        "discord vanishes at degenerate angles, coherence drop bounds it, PPT holds",
        ok,
        f"zero={worst_zero:.2e}, spread={spread:.2e}, dC dev={worst_dc:.2e}, "
        f"slack={worst_slack:.2e}, ppt min={worst_ppt:.2e}",
    )


def test_criterion_09_budget_frontier():
    def cfg(n, p=0.0):
        return Dqc1Config(n=n, alpha=1.0, p=p, theta=HALF_PI)

    def bit_budget(budget, c, j):
        # the queries learn spends on bit j, without a cap
        return lpn.plan(c, budget, max_queries=10**400)[j - 1][1]

    noisier = [
        bit_budget(BudgetParams(delta=0.01, L=100), cfg(4, p), 1)
        for p in (0.0, 0.5, 0.9, 0.99)
    ]
    diverges_p = all(a < b for a, b in zip(noisier, noisier[1:]))

    tighter = [
        bit_budget(BudgetParams(delta=0.01, L=1), cfg(n), 1)
        for n in (2, 6, 10, 14)
    ]
    diverges_eps = all(a < b for a, b in zip(tighter, tighter[1:]))

    huge = BudgetParams(delta=0.01, L=10**22)
    feasible = max(bit_budget(huge, cfg(66), j) for j in (1, 22, 44, 66))
    infeasible = bit_budget(huge, cfg(120), 1)

    ok = diverges_p and diverges_eps and feasible <= 2 and infeasible > 10**6
    _verdict(
        9,
        "budget diverges with noise and tail length; n=66 cheap, n=120 not",
        ok,
        f"p-sweep={noisier}, feasible max={feasible}, n=120 needs {infeasible:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    jobs = [
        (
            "learn.json",
            ["learn", "--n", "6", "--backend", "sampled",
             "--L", "500", "--seed", "33"],
        ),
        (
            "sweep.csv",
            ["noise-sweep", "--mode", "systematic", "--s", "0110",
             "--phi-grid", "0:0.4pi:3", "--theta-grid", "0.3,1.57",
             "--format", "csv", "--seed", "33"],
        ),
    ]
    identical = True
    for name, argv in jobs:
        first = tmp_path / f"one_{name}"
        second = tmp_path / f"two_{name}"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    _verdict(10, "repeated CLI runs with one seed are byte-identical", identical)
