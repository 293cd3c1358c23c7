"""Command-line front end.

Subcommands: learn, trace-table, discord-sweep, noise-sweep, coherence.
Single runs serialize as JSON, sweeps as CSV (switchable via --format).
Angles accept radians or multiples of pi via a "pi" suffix ("0.5pi").
All randomness derives from --seed, and the serialized output contains
no timestamps, so re-running a command with the same flags reproduces
the output byte for byte (wall time goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from itertools import chain
from typing import Any

import numpy as np

from . import __version__, circuits, infomeasures, lpn, noise
from .circuits import as_bits, bits_to_str, mask_kinds, normal_tau, ones_mask
from .dqc1 import Dqc1Config
from .lpn import BudgetParams


def parse_angle(text: str) -> float:
    """Parse "0.7", "0.5pi", "pi", "-0.25pi" into radians; reject nan and inf."""
    raw = str(text).strip().lower()
    if raw.endswith("pi"):
        head = raw[:-2]
        if head in ("", "+", "-"):
            head += "1"
        value = float(head) * math.pi
    else:
        value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


#: Most points a "lo:hi:count" grid, or a product of two grids, may hold;
#: a typo in a count should exit 2, not fill the host's memory.
MAX_GRID_POINTS = 10**5


def parse_grid(text: str, *, angle: bool = False) -> list[float]:
    """Grid syntax: "lo:hi:count" (inclusive linspace) or "a,b,c"; an empty
    grid, or a count above ``MAX_GRID_POINTS``, is refused."""
    conv = parse_angle if angle else float
    raw = str(text).strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be lo:hi:count")
        lo, hi = conv(parts[0]), conv(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError("grid count must be positive")
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid count {count} exceeds {MAX_GRID_POINTS}")
        return [float(v) for v in np.linspace(lo, hi, count)]
    values = [conv(item) for item in raw.split(",") if item != ""]
    if not values:
        raise ValueError(f"grid {text!r} is empty")
    return values


def _check_product(first: list[float], second: list[float]) -> None:
    """Refuse a product of two grids above ``MAX_GRID_POINTS``."""
    if len(first) * len(second) > MAX_GRID_POINTS:
        raise ValueError(
            f"{len(first)} x {len(second)} grid points exceed {MAX_GRID_POINTS}"
        )


def parse_seed(text: str) -> int:
    """--seed: an integer in 0..2^64-1, the range every command accepts."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} outside 0..2^64-1")
    return value


class NonFiniteOutputError(Exception):
    """A result holds NaN or an infinity, which neither JSON nor the CSV
    output may carry; the command computed something it should not have."""


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteOutputError(f"non-finite value {value!r} in the output")
        return format(value, ".12g")
    return str(value)


def _dumps(obj: Any, **kwargs) -> str:
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NonFiniteOutputError(str(exc)) from exc


#: Exact types of the JSON scalars; a subclass takes the general path.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _flat(values) -> bool:
    """Whether every value is a JSON scalar, checked at C speed."""
    return _SCALAR_TYPES.issuperset(map(type, values))


def _json_key(key: Any) -> str:
    """A dict key as ``json.dumps`` writes it: non-strings in quotes."""
    return _dumps(key) if isinstance(key, str) else '"' + _dumps(key) + '"'


def _indented(obj: Any, level: int = 0) -> str:
    """``json.dumps(obj, indent=2)`` for `obj` nested `level` deep, built
    from calls to json's C encoder, which ``indent`` would switch off.

    A container of scalars is one call whose item separator carries the
    newline and indent.  So is a list of nonempty flat dicts (the rows):
    an encoded string never holds a raw newline, so each "}," plus a
    newline in that call's output is a row boundary, re-indented by one
    replace.
    """
    if isinstance(obj, dict):
        opener, closer, values = "{", "}", obj.values()
    elif isinstance(obj, (list, tuple)):
        opener, closer, values = "[", "]", obj
    else:
        return _dumps(obj)
    if not obj:
        return opener + closer
    inner = "\n" + "  " * (level + 1)
    if _flat(values):
        body = _dumps(obj, separators=("," + inner, ": "))[1:-1]
    elif isinstance(obj, dict):
        body = ("," + inner).join(
            _json_key(k) + ": " + _indented(v, level + 1) for k, v in obj.items()
        )
    elif (
        {dict}.issuperset(map(type, obj)) and all(obj)
        and _flat(chain.from_iterable(map(dict.values, obj)))
    ):
        keys = "\n" + "  " * (level + 2)
        rows = _dumps(obj, separators=("," + keys, ": "))[2:-2]
        body = (
            "{" + keys
            + rows.replace("}," + keys + "{", inner + "}," + inner + "{" + keys)
            + inner + "}"
        )
    else:
        body = ("," + inner).join(_indented(v, level + 1) for v in obj)
    return opener + inner + body + "\n" + "  " * level + closer


def _serialize(payload: dict[str, Any], fmt: str) -> str:
    """The run record `payload` ({command, version, seed, config, results})
    as JSON, or as a CSV of its result rows under a "#" header line."""
    if fmt == "json":
        return _indented(payload) + "\n"
    results = payload["results"]
    rows = results.get("rows", [])
    scalars = {k: v for k, v in results.items() if k != "rows"}
    head = (
        f"# dqc1lpn v{payload['version']} command={payload['command']} "
        f"seed={payload['seed']} config={_dumps(payload['config'], separators=(',', ':'))}"
    )
    if scalars:
        head += " " + " ".join(f"{k}={_fmt(v)}" for k, v in scalars.items())
    lines = [head]
    if rows:
        columns = list(rows[0].keys())
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _resolve_string(args) -> np.ndarray:
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n {args.n} must be at least 1")
    if args.s is not None and args.random_s:
        raise ValueError("give either --s or --random-s, not both")
    if args.s is not None:
        bits = as_bits(args.s)
        if args.n is not None and args.n != bits.size:
            raise ValueError(f"--n {args.n} disagrees with --s length {bits.size}")
        return bits
    if not args.random_s:
        raise ValueError("provide --s or --random-s")
    if args.n is None:
        raise ValueError("--random-s needs --n")
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(args.seed, spawn_key=(0,)))
    )
    return gen.integers(0, 2, size=args.n, dtype=np.uint8)


def cmd_learn(args) -> tuple[dict[str, Any], dict[str, Any]]:
    if args.queries is not None and args.queries < 1:
        raise ValueError(f"--queries {args.queries} must be at least 1")
    if args.max_queries < 1:
        raise ValueError(f"--max-queries {args.max_queries} must be at least 1")
    theta = parse_angle(args.theta)
    bits = _resolve_string(args)
    n = bits.size
    cfg = Dqc1Config(
        n=n, alpha=args.alpha, p=args.p, theta=theta,
        backend=args.backend, seed=args.seed,
    )
    budget = BudgetParams(delta=args.delta, L=args.L, per_bit_delta=args.per_bit_delta)
    oracle = lpn.make_oracle(bits, cfg)
    result = lpn.learn(
        oracle, cfg, budget,
        fixed_queries=args.queries, max_queries=args.max_queries,
    )
    s_hat = bits_to_str(result.s_hat)
    rows = [
        {
            "j": step.j,
            "ex": step.record.ex,
            "ey": step.record.ey,
            "se_x": step.record.se_x,
            "se_y": step.record.se_y,
            "queries": step.queries,
            "ensemble": budget.L,
            "threshold": step.threshold,
            "bit": step.bit,
        }
        for step in result.steps
    ]
    config = {
        "n": n,
        "s": bits_to_str(bits),
        "alpha": args.alpha,
        "p": args.p,
        "theta": theta,
        "theta_raw": args.theta,
        "L": args.L,
        "delta": args.delta,
        "per_bit_delta": args.per_bit_delta,
        "backend": args.backend,
        "queries": args.queries,
        "max_queries": args.max_queries,
    }
    results = {
        "s_hat": s_hat,
        "success": s_hat == bits_to_str(bits),
        "total_queries": sum(step.queries for step in result.steps),
        "rows": rows,
    }
    return config, results


def cmd_trace_table(args) -> tuple[dict[str, Any], dict[str, Any]]:
    theta = parse_angle(args.theta)
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n {args.n} must be at least 1")
    if args.s is not None:
        strings = [as_bits(args.s)]
        n = strings[0].size
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} disagrees with --s length {n}")
    else:
        if args.n is None:
            raise ValueError("provide --s or --n")
        n = args.n
        if n > 8:
            raise ValueError("full tables stop at n = 8; pass --s for larger n")
        strings = [as_bits(format(v, f"0{n}b")) for v in range(2**n)]
    rows = []
    for bits in strings:
        text, ones = bits_to_str(bits), ones_mask(bits)
        for j in range(1, n + 1):
            # 1..j-1 decoupled with their 1s corrected; the gap clears s_j
            rotated = ((1 << n) - 1) >> j << j
            flips = ones >> (j - 1) << (j - 1)
            tau = normal_tau(theta, 0.0, mask_kinds(n, rotated, flips))
            gap = normal_tau(theta, 0.0, mask_kinds(n, rotated, flips & rotated))
            rows.append(
                {
                    "s": text,
                    "j": j,
                    "decoupled_prefix": f"1-{j - 1}" if j > 1 else "-",
                    "re_tau": tau.real,
                    "im_tau": tau.imag,
                    "abs_delta_tau": abs(gap),
                }
            )
    config = {"n": n, "s": args.s, "theta": theta, "theta_raw": args.theta}
    return config, {"rows": rows}


def cmd_discord_sweep(args) -> tuple[dict[str, Any], dict[str, Any]]:
    if (args.alpha_grid is None) == (args.theta_grid is None):
        raise ValueError("give exactly one of --alpha-grid or --theta-grid")
    bits = as_bits(args.s)
    n = bits.size
    if not 1 <= args.j <= n:
        raise ValueError(f"--j {args.j} outside 1..{n}")
    rows = []
    if args.alpha_grid is not None:
        theta = parse_angle(args.theta)
        block = circuits.StepBlock.from_bits(bits, theta, args.j)
        for alpha in parse_grid(args.alpha_grid):
            res = infomeasures.protocol_discord(block, alpha)
            rows.append(
                {
                    "alpha": alpha,
                    "discord": res.discord,
                    "meas_theta": res.measurement_theta,
                    "meas_phi": res.measurement_phi,
                }
            )
        config = {
            "s": bits_to_str(bits), "j": args.j, "theta": theta,
            "theta_raw": args.theta, "alpha_grid": args.alpha_grid,
        }
    else:
        if args.alpha is None:
            raise ValueError("--theta-grid mode needs --alpha")
        one = bits.copy()
        one[args.j - 1] = 1
        zero = bits.copy()
        zero[args.j - 1] = 0
        for theta in parse_grid(args.theta_grid, angle=True):
            vals = {}
            for tag, pattern in (("one", one), ("zero", zero)):
                block = circuits.StepBlock.from_bits(pattern, theta, args.j)
                vals[tag] = infomeasures.protocol_discord(block, args.alpha).discord
            rows.append(
                {
                    "theta": theta,
                    "discord_bit_one": vals["one"],
                    "discord_bit_zero": vals["zero"],
                    "contrast": vals["one"] - vals["zero"],
                }
            )
        config = {
            "s": bits_to_str(bits), "j": args.j, "alpha": args.alpha,
            "theta_grid": args.theta_grid,
        }
    return config, {"rows": rows}


def cmd_noise_sweep(args) -> tuple[dict[str, Any], dict[str, Any]]:
    bits = as_bits(args.s)
    n = bits.size
    rows: list[dict[str, Any]] = []
    config: dict[str, Any] = {"mode": args.mode, "s": bits_to_str(bits)}
    if args.mode == "midq":
        theta = parse_angle(args.theta)
        cfg = Dqc1Config(n=n, alpha=args.alpha, p=args.p, theta=theta, seed=args.seed)
        q_grid = parse_grid(args.q_grid)
        ratios = noise.midcircuit_noise_sweep(bits, cfg, q_grid, j=args.j)
        rows = [{"q": q, "signal_ratio": r} for q, r in zip(q_grid, ratios)]
        config.update(
            theta=theta, theta_raw=args.theta, alpha=args.alpha,
            p=args.p, q_grid=args.q_grid, j=args.j,
        )
    elif args.mode == "parity":
        theta = parse_angle(args.theta)
        cfg = Dqc1Config(n=n, alpha=args.alpha, p=args.p, theta=theta, seed=args.seed)
        flips = [int(v) for v in str(args.flips).split(",") if v != ""]
        corrupted = noise.phase_flip_parity_experiment(bits, cfg, flips, j=args.j)
        clean = noise.phase_flip_parity_experiment(bits, cfg, (), j=args.j)
        rows.append(
            {
                "flips": ";".join(str(v) for v in flips) or "-",
                "ex": corrupted.ex,
                "ey": corrupted.ey,
                "ex_clean": clean.ex,
                "ey_clean": clean.ey,
                "max_abs_delta": max(
                    abs(corrupted.ex - clean.ex), abs(corrupted.ey - clean.ey)
                ),
            }
        )
        config.update(
            theta=theta, theta_raw=args.theta, alpha=args.alpha,
            p=args.p, flips=args.flips, j=args.j,
        )
    else:  # systematic
        phi_grid = parse_grid(args.phi_grid, angle=True)
        theta_grid = parse_grid(args.theta_grid, angle=True)
        _check_product(phi_grid, theta_grid)
        cfg = Dqc1Config(
            n=n, alpha=args.alpha, p=args.p, theta=theta_grid[0], seed=args.seed
        )
        for row in noise.systematic_error_sweep(
            bits, cfg, phi_grid, theta_grid, j=args.j
        ):
            rows.append(
                {
                    "phi": row.phi,
                    "theta": row.theta,
                    "re_tau_dense": row.tau_dense.real,
                    "im_tau_dense": row.tau_dense.imag,
                    "re_tau_pred": row.tau_predicted.real,
                    "im_tau_pred": row.tau_predicted.imag,
                    "deviation": row.deviation,
                }
            )
        config.update(
            alpha=args.alpha, p=args.p, phi_grid=args.phi_grid,
            theta_grid=args.theta_grid, j=args.j,
        )
    return config, {"rows": rows}


def cmd_coherence(args) -> tuple[dict[str, Any], dict[str, Any]]:
    alphas = parse_grid(args.alpha_grid)
    taus = parse_grid(args.tau_grid)
    _check_product(alphas, taus)
    rows = []
    for alpha in alphas:
        for tau_abs in taus:
            rows.append(
                {
                    "alpha": alpha,
                    "tau_abs": tau_abs,
                    "delta_c": infomeasures.coherence_consumption(alpha, tau_abs),
                }
            )
    config = {"alpha_grid": args.alpha_grid, "tau_grid": args.tau_grid}
    return config, {"rows": rows}


def _add_common(sub, default_format: str):
    sub.add_argument("--seed", type=parse_seed, default=0, help="root RNG seed")
    sub.add_argument("--out", default=None, help="write the record here instead of stdout")
    sub.add_argument(
        "--format", choices=("json", "csv"), default=default_format,
        help=f"output format (default {default_format})",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it:
    parsing leaves it unchanged, and building it costs more than most
    commands."""
    parser = argparse.ArgumentParser(
        prog="dqc1lpn",
        description="One-clean-qubit trace estimation and parity learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="recover a hidden parity string")
    p.add_argument("--n", type=int, default=None, help="number of data qubits")
    p.add_argument("--s", default=None, help="hidden string, e.g. 0110")
    p.add_argument("--random-s", action="store_true", help="draw s from the seed")
    p.add_argument("--alpha", type=float, default=1.0, help="probe polarization")
    p.add_argument("--p", type=float, default=0.0, help="readout depolarization")
    p.add_argument("--theta", default="0.5pi", help="rotation angle (pi suffix ok)")
    p.add_argument("--L", type=int, default=1000, help="shots per query")
    p.add_argument("--delta", type=float, default=0.01, help="failure probability")
    p.add_argument(
        "--per-bit-delta", action="store_true",
        help="spend delta per bit instead of splitting it globally",
    )
    p.add_argument(
        "--backend", choices=("dense", "closed", "sampled"), default="closed"
    )
    p.add_argument(
        "--queries", type=int, default=None,
        help="fixed queries per bit (overrides the budget rule)",
    )
    p.add_argument(
        "--max-queries", type=int, default=10**7,
        help="refuse bits that would need more queries than this",
    )
    _add_common(p, "json")

    p = sub.add_parser("trace-table", help="closed-form readout table")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", default=None, help="single string (else all, n <= 8)")
    p.add_argument("--theta", default="0.5pi")
    _add_common(p, "csv")

    p = sub.add_parser("discord-sweep", help="probe-register discord sweeps")
    p.add_argument("--s", required=True)
    p.add_argument("--j", type=int, required=True, help="probed data qubit")
    p.add_argument("--theta", default="0.5pi", help="angle for --alpha-grid mode")
    p.add_argument("--alpha", type=float, default=None, help="fixed polarization for --theta-grid mode")
    p.add_argument("--alpha-grid", default=None, help="lo:hi:count")
    p.add_argument("--theta-grid", default=None, help="lo:hi:count (pi suffix ok)")
    _add_common(p, "csv")

    p = sub.add_parser("noise-sweep", help="error-model experiments")
    p.add_argument("--mode", choices=("midq", "parity", "systematic"), required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--theta", default="0.5pi")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--j", type=int, default=None, help="probed data qubit (default: first 0 bit)")
    p.add_argument("--q-grid", default="0:0.05:6", help="midq mode: depolarization grid")
    p.add_argument("--flips", default="", help="parity mode: data qubits to phase-flip, e.g. 1,3")
    p.add_argument("--phi-grid", default="0:0.45pi:5", help="systematic mode: tilt grid")
    p.add_argument("--theta-grid", default="0.3:2.2:5", help="systematic mode: angle grid")
    _add_common(p, "csv")

    p = sub.add_parser("coherence", help="coherence consumed per readout")
    p.add_argument("--alpha-grid", default="0.1:1:10")
    p.add_argument("--tau-grid", default="0:1:11")
    _add_common(p, "csv")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        # looked up by name on each call, so a replaced command function runs
        config, results = globals()["cmd_" + args.command.replace("-", "_")](args)
        wall_time_ms = (time.perf_counter() - start) * 1000.0
        payload = {
            "command": args.command, "version": __version__, "seed": args.seed,
            "config": config, "results": results,
        }
        text = _serialize(payload, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                reason = exc.strerror or exc
                raise ValueError(f"cannot write {args.out}: {reason}") from exc
        else:
            sys.stdout.write(text)
    except lpn.BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    print(f"{args.command}: finished in {wall_time_ms:.1f} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
