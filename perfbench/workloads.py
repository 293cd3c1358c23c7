"""The benchmark's workloads: inputs drawn from the workload seed, the CLI
argv each job passes to ``dqc1lpn.cli.main``, and the check of its output.

A job is one ``cli.main`` call. Job ``i`` of a run draws its inputs from
``random.Random(f"{name}:{seed}:{i}")``, so the same seed gives the same
jobs; the warm-up job is ``i = -1``. The program only ever receives
explicit ``--s`` strings, never ``--random-s``.

Each check is deterministic and independent of the program's code: the
readouts are rebuilt from the per-qubit product formula

    tau = prod_k f_k,  f_k = cos(theta/2) for s_k = 0, i sin(theta/2) for s_k = 1,

taken over the rotated qubits, with a factor 0 when the probed qubit
carries a coupling. ``tiny=True`` shrinks every size for the self-test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: The benchmark's contract: workloads, metric names, units and bounds.
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

#: Recorded discord values; see record_discord.py.
DISCORD_REFERENCE = HERE / "discord_reference.json"

#: Tolerances of the deterministic output checks.
READOUT_TOL = 1e-9
DISCORD_TOL = 1e-6


@dataclass(frozen=True)
class Job:
    argv: list[str]
    expect: dict[str, Any]


@dataclass(frozen=True)
class Outcome:
    """Result of checking one job: ok, the ops it completed, and why not."""

    ok: bool
    ops: int = 0
    reason: str = ""


class CheckFailed(Exception):
    pass


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite number {name} in JSON")


def _parse_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"unparsable JSON: {exc}") from None


def _parse_csv(text: str) -> list[dict[str, float]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# dqc1lpn"):
        raise CheckFailed("CSV lacks its # comment line")
    rows = []
    for row in csv.DictReader(io.StringIO("\n".join(lines[1:]))):
        try:
            values = {k: float(v) for k, v in row.items()}
        except (TypeError, ValueError):
            raise CheckFailed(f"unparsable CSV row {row}") from None
        if not all(math.isfinite(v) for v in values.values()):
            raise CheckFailed(f"non-finite number in CSV row {row}")
        rows.append(values)
    return rows


def _require(cond: bool, reason: str):
    if not cond:
        raise CheckFailed(reason)


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _factor(bit: str, theta: float) -> complex:
    return 1j * math.sin(theta / 2.0) if bit == "1" else complex(math.cos(theta / 2.0))


def learner_taus(s: str, theta: float) -> list[complex]:
    """tau read at bit j = 1..n by a learner that has decided bits < j
    correctly: 0 if s_j = 1, else the product over the qubits after j."""
    taus = []
    tail = 1.0 + 0.0j
    for k in range(len(s) - 1, -1, -1):
        taus.append(0j if s[k] == "1" else tail)
        tail *= _factor(s[k], theta)
    return taus[::-1]


def step_tau(s: str, theta: float, j: int) -> complex:
    """tau of the discrimination block for bit j: every other qubit rotated."""
    if s[j - 1] == "1":
        return 0j
    tau = 1.0 + 0.0j
    for k, bit in enumerate(s, start=1):
        if k != j:
            tau *= _factor(bit, theta)
    return tau


def _h2(x: float) -> float:
    return -sum(t * math.log2(t) for t in (x, 1.0 - x) if t > 0.0)


def probe_register_information(alpha: float, tau: complex) -> float:
    """I(probe : register) of the protocol state: the register stays maximally
    mixed and the whole state is a unitary image of the initial one, so
    I = H2((1 - alpha |tau|)/2) - H2((1 - alpha)/2)."""
    return _h2((1.0 - alpha * abs(tau)) / 2.0) - _h2((1.0 - alpha) / 2.0)


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under section."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Workload:
    """One workload: ``name``, the ``op`` its ops_per_s counts, its ``sizes``,
    and the job factory and output check. Why each exists is in
    BENCHMARK.json."""

    name = ""
    op = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    @property
    def sizes(self) -> dict[str, Any]:
        raise NotImplementedError

    def job(self, seed: int, index: int) -> Job:
        return self.make_job(random.Random(f"{self.name}:{seed}:{index}"))

    def make_job(self, rng: random.Random) -> Job:
        raise NotImplementedError

    def check(self, job: Job, rc: Any, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(False, reason=f"exit {rc}")
        try:
            return Outcome(True, ops=self.verify(job, stdout))
        except CheckFailed as exc:
            return Outcome(False, reason=str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            return Outcome(False, reason=f"malformed output: {exc!r}")

    def verify(self, job: Job, stdout: str) -> int:
        """Raise CheckFailed on a wrong output, else return the ops done."""
        raise NotImplementedError


class LearnSampled(Workload):
    name = "learn-sampled"
    op = "query"

    @property
    def sizes(self):
        # s_1 = 0 fixes the probe phase at the first bit, so every job reads
        # both quadratures on bit 1 only and all jobs do the same work
        return {"n": 6 if self.tiny else 15, "theta": "0.5pi", "alpha": 0.8,
                "p": 0.2, "L": 1000, "delta": 0.01, "s_1": 0}

    def make_job(self, rng):
        z = self.sizes
        s = "0" + _bits(rng, z["n"] - 1)
        argv = ["learn", "--backend", "sampled", "--s", s, "--theta", z["theta"],
                "--alpha", str(z["alpha"]), "--p", str(z["p"]), "--L", str(z["L"]),
                "--delta", str(z["delta"]), "--seed", str(rng.randrange(2**32))]
        return Job(argv, {"s": s})

    def verify(self, job, stdout):
        # a wrong s_hat is the protocol's stated delta failure, not a failed
        # job; the traced run counts it as lpn.wrong_bits
        res = _parse_json(stdout)["results"]
        _require(len(res["s_hat"]) == len(job.expect["s"]), "s_hat has the wrong length")
        total = res["total_queries"]
        _require(isinstance(total, int) and total >= 1, "total_queries is not a positive count")
        return total


class LearnExact(Workload):
    """learn with a deterministic backend and one query per bit."""

    backend = ""

    def make_job(self, rng):
        n = self.sizes["n"]
        s = _bits(rng, n)
        theta = rng.uniform(0.35, 0.65) * math.pi
        alpha = rng.uniform(0.5, 1.0)
        p = rng.uniform(0.0, 0.3)
        argv = ["learn", "--backend", self.backend, "--queries", "1", "--s", s,
                "--theta", repr(theta), "--alpha", repr(alpha), "--p", repr(p),
                "--seed", str(rng.randrange(2**32))]
        return Job(argv, {"s": s, "theta": theta, "alpha": alpha, "p": p})

    def verify(self, job, stdout):
        e = job.expect
        res = _parse_json(stdout)["results"]
        _require(res["s_hat"] == e["s"], f"s_hat {res['s_hat']} != s {e['s']}")
        rows = res["rows"]
        _require(len(rows) == len(e["s"]), "one row per bit expected")
        scale = (1.0 - e["p"]) * e["alpha"]
        for j, (row, tau) in enumerate(zip(rows, learner_taus(e["s"], e["theta"])), start=1):
            _require(row["j"] == j and row["queries"] == 1, f"row {j} is malformed")
            want = scale * tau
            if abs(row["ex"] - want.real) > READOUT_TOL or abs(row["ey"] - want.imag) > READOUT_TOL:
                raise CheckFailed(
                    f"row {j}: (ex, ey) = ({row['ex']}, {row['ey']}), expected {want}"
                )
        return len(rows)


class LearnDense(LearnExact):
    name = "learn-dense"
    op = "bit"
    backend = "dense"

    @property
    def sizes(self):
        return {"n": 4 if self.tiny else 9, "queries": 1}


class LearnClosed(LearnExact):
    name = "learn-closed"
    op = "bit"
    backend = "closed"

    @property
    def sizes(self):
        return {"n": 20 if self.tiny else 600, "queries": 1}


class Discord(Workload):
    """Points come from a recorded table (discord_reference.json) so that D
    can be checked against the values the seed commit produced; the workload
    seed sets the order in which a run cycles through the table."""

    name = "discord"
    op = "point"

    def __init__(self, tiny=False):
        super().__init__(tiny)
        table = json.loads(DISCORD_REFERENCE.read_text())
        self.points = table["tiny" if tiny else "full"]

    @property
    def sizes(self):
        return {"n": len(self.points[0]["s"]), "points": len(self.points),
                "alphas_per_job": 1}

    def job(self, seed, index):
        order = list(range(len(self.points)))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        point = self.points[order[index % len(order)]]
        argv = ["discord-sweep", "--s", point["s"], "--j", str(point["j"]),
                "--theta", repr(point["theta"]), "--alpha-grid", repr(point["alpha"]),
                "--seed", str(seed)]
        return Job(argv, point)

    def verify(self, job, stdout):
        e = job.expect
        rows = _parse_csv(stdout)
        _require(len(rows) == 1, "one discord row expected")
        d = rows[0]["discord"]
        info = probe_register_information(e["alpha"], step_tau(e["s"], e["theta"], e["j"]))
        _require(0.0 <= d <= info + READOUT_TOL, f"discord {d} outside [0, I = {info}]")
        _require(abs(d - e["discord"]) <= DISCORD_TOL,
                 f"discord {d} differs from recorded {e['discord']}")
        return 1


class NoiseMidq(Workload):
    name = "noise-midq"
    op = "q_point"

    @property
    def sizes(self):
        return {"n": 3 if self.tiny else 7, "q_points": 6}

    def make_job(self, rng):
        n = self.sizes["n"]
        s = _bits(rng, n)
        while "0" not in s or "1" not in s:
            s = _bits(rng, n)
        j = rng.choice([k for k, bit in enumerate(s, start=1) if bit == "0"])
        qs = sorted(rng.uniform(0.0, 0.2) for _ in range(self.sizes["q_points"]))
        argv = ["noise-sweep", "--mode", "midq", "--s", s, "--j", str(j),
                "--theta", repr(rng.uniform(0.35, 0.65) * math.pi),
                "--alpha", repr(rng.uniform(0.5, 1.0)), "--p", repr(rng.uniform(0.0, 0.3)),
                "--q-grid", ",".join(repr(q) for q in qs), "--seed", str(rng.randrange(2**32))]
        return Job(argv, {"m": s.count("1"), "qs": qs})

    def verify(self, job, stdout):
        e = job.expect
        rows = _parse_csv(stdout)
        _require(len(rows) == len(e["qs"]), "one row per q expected")
        for row, q in zip(rows, e["qs"]):
            _require(abs(row["q"] - q) <= 1e-12, f"row q {row['q']} != {q}")
            want = (1.0 - q) ** e["m"]
            _require(abs(row["signal_ratio"] - want) <= READOUT_TOL,
                     f"signal_ratio {row['signal_ratio']} != (1-q)^m = {want}")
        return len(rows)


WORKLOADS = {w.name: w for w in (LearnSampled, LearnDense, LearnClosed, Discord, NoiseMidq)}
