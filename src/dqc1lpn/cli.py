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
import dataclasses
import functools
import json
import math
import re
import sys
import time
from itertools import chain, product
from typing import Any

import numpy as np

from . import __version__, circuits, infomeasures, lpn, noise
from .circuits import angle_traces, as_bits, bits_to_str, mask_kinds, normal_tau, ones_mask
from .dqc1 import BACKENDS, Dqc1Config
from .lpn import BudgetParams


def _number(text: str, what: str) -> float:
    """float(text); a refusal names `what`, not the text, which may be long."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} is not a number") from None


#: A decimal integer as int() reads it: int() refuses one only when its
#: digits pass Python's limit (``sys.get_int_max_str_digits()``).
_INT_TEXT = r"\s*[+-]?\d+(?:_\d+)*\s*"


def _int_fault(text: str) -> str:
    """Why int(text) refused `text`, without echoing it."""
    if re.fullmatch(_INT_TEXT, text):
        return f"an integer longer than Python's {sys.get_int_max_str_digits()}-digit limit"
    return "not an integer"


def _integer(text: str, what: str) -> int:
    """int(text); a refusal names `what`, not the text, which may be long."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} is {_int_fault(text)}") from None


def parse_angle(text: str) -> float:
    """Parse "0.7", "0.5pi", "pi", "-0.25pi" into radians; reject nan and inf."""
    raw = str(text).strip().lower()
    if raw.endswith("pi"):
        head = raw[:-2]
        if head in ("", "+", "-"):
            head += "1"
        value = _number(head, "angle") * math.pi
    else:
        value = _number(raw, "angle")
    if not math.isfinite(value):
        raise ValueError("angle is not finite")
    return value


#: Most points a "lo:hi:count" grid, or a product of two grids, may hold;
#: a typo in a count should exit 2, not fill the host's memory.
MAX_GRID_POINTS = 10**5


def parse_grid(text: str, *, angle: bool = False) -> list[float]:
    """Grid syntax: "lo:hi:count" (inclusive linspace) or "a,b,c"; an empty
    grid, or a count above ``MAX_GRID_POINTS``, is refused."""
    conv = parse_angle if angle else functools.partial(_number, what="grid value")
    raw = str(text).strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be lo:hi:count or a comma-separated list")
        lo, hi = conv(parts[0]), conv(parts[1])
        count = _integer(parts[2], "grid count")
        if count < 1:
            raise ValueError("grid count must be positive")
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid count exceeds {MAX_GRID_POINTS}")
        return [float(v) for v in np.linspace(lo, hi, count)]
    values = [conv(item) for item in raw.split(",") if item != ""]
    if not values:
        raise ValueError("grid is empty")
    return values


def _check_product(first: list[float], second: list[float]) -> None:
    """Refuse a product of two grids above ``MAX_GRID_POINTS``."""
    if len(first) * len(second) > MAX_GRID_POINTS:
        raise ValueError(
            f"{len(first)} x {len(second)} grid points exceed {MAX_GRID_POINTS}"
        )


def parse_int(text: str) -> int:
    """Type of the int options: argparse's own refusal would echo the text."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(_int_fault(text)) from None


def parse_float(text: str) -> float:
    """Type of the float options: argparse's own refusal would echo the text."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number") from None


def parse_count(text: str) -> int:
    """Type of the count options: an integer of at least 1."""
    value = parse_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_seed(text: str) -> int:
    """--seed: an integer in 0..2^64-1, the range every command accepts."""
    value = parse_int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed outside 0..2^64-1")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses in one line on stderr, without the
    usage text; --help still prints it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_choice(sub, flag: str, names: tuple[str, ...], **kwargs) -> None:
    """An option that takes one of `names`.  Its type refuses any other text
    without echoing it; argparse applies the type before its own check of
    ``choices``, which keeps the names in --help."""

    def one_of(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError("not one of " + ", ".join(names))
        return text

    sub.add_argument(flag, type=one_of, choices=names, **kwargs)


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


#: Exact types of the JSON scalars that a dict or list may hold, to be
#: written by one encoder call.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _indented(obj: Any, level: int = 0) -> str:
    """What ``json.dumps`` writes with ``indent=2`` for `obj`, a part of a
    run record nested `level` deep, built from calls to json's C encoder,
    which ``indent`` would switch off.  It is exact for the shapes the
    commands build, below; another shape, such as a non-string key or a
    nested row, may come out otherwise.

    A JSON scalar is one call, and so is a dict or list of them, whose item
    separator carries the newline and indent.  A table, a nonempty list of
    dicts that share row 0's string keys and hold only scalars, is filled
    into one template: its keys are encoded once (a "%" doubled), every
    cell is written by one call whose item separator is a NUL (the encoder
    writes a NUL inside a string as \\u0000, so the split finds only
    separators), and one "%" operation puts the cells in place.  A dict
    with string keys whose values are these shapes recurses.
    """
    if isinstance(obj, dict):
        opener, closer, values = "{", "}", obj.values()
    elif isinstance(obj, list):
        opener, closer, values = "[", "]", obj
    else:
        return _dumps(obj)
    if not obj:
        return opener + closer
    inner = "\n" + "  " * (level + 1)
    if _SCALAR_TYPES.issuperset(map(type, values)):
        body = _dumps(obj, separators=("," + inner, ": "))[1:-1]
    elif isinstance(obj, dict):
        body = ("," + inner).join(
            _dumps(k) + ": " + _indented(v, level + 1) for k, v in obj.items()
        )
    else:
        indent = "\n" + "  " * (level + 2)
        row = (
            "{" + indent
            + ("," + indent).join(_dumps(k).replace("%", "%%") + ": %s" for k in obj[0])
            + inner + "}"
        )
        cells = list(chain.from_iterable(map(dict.values, obj)))
        text = _dumps(cells, separators=("\0", ":"))[1:-1]
        body = ("," + inner).join([row] * len(obj)) % tuple(text.split("\0"))
    return opener + inner + body + "\n" + "  " * level + closer


def _serialize(payload: dict[str, Any], fmt: str) -> str:
    """The run record `payload` ({command, version, seed, config, results})
    as JSON, or as a CSV of its result rows under a "#" header line."""
    if fmt == "json":
        return _indented(payload) + "\n"
    results = payload["results"]
    rows = results["rows"]
    scalars = {k: v for k, v in results.items() if k != "rows"}
    head = (
        f"# dqc1lpn v{payload['version']} command={payload['command']} "
        f"seed={payload['seed']} config={_dumps(payload['config'], separators=(',', ':'))}"
    )
    if scalars:
        head += " " + " ".join(f"{k}={_fmt(v)}" for k, v in scalars.items())
    columns = list(rows[0])
    lines = [head, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def cmd_learn(args) -> tuple[dict[str, Any], dict[str, Any]]:
    theta = parse_angle(args.theta)
    bits = as_bits(args.s) if args.s is not None else None
    n = bits.size if bits is not None else args.n
    cfg = Dqc1Config(
        n=n, alpha=args.alpha, p=args.p, theta=theta,
        backend=args.backend, seed=args.seed,
    )
    budget = BudgetParams(delta=args.delta, L=args.L, per_bit_delta=args.per_bit_delta)
    if bits is None:
        # the plan reads only n, so learn's refusals come before --n bits are drawn
        lpn.plan(cfg, budget, fixed_queries=args.queries, max_queries=args.max_queries)
        gen = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(0,)))
        bits = gen.integers(0, 2, size=n, dtype=np.uint8)
    oracle = lpn.make_oracle(bits, cfg)
    result = lpn.learn(
        oracle, cfg, budget,
        fixed_queries=args.queries, max_queries=args.max_queries,
    )
    s_text, s_hat = bits_to_str(bits), bits_to_str(result.s_hat)
    ensemble = budget.L
    rows = [
        {
            "j": j,
            "ex": ex,
            "ey": ey,
            "se_x": se_x,
            "se_y": se_y,
            "queries": queries,
            "ensemble": ensemble,
            "threshold": threshold,
            "bit": bit,
        }
        for j, (ex, ey, se_x, se_y), queries, threshold, bit in result.steps
    ]
    config = {
        "n": n,
        "s": s_text,
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
        "success": s_hat == s_text,
        "total_queries": sum(step.queries for step in result.steps),
        "rows": rows,
    }
    return config, results


def cmd_trace_table(args) -> tuple[dict[str, Any], dict[str, Any]]:
    theta = parse_angle(args.theta)
    if args.s is not None:
        # ones_mask reads --s through as_bits, which refuses what is not a bit string
        patterns = [(args.s, ones_mask(args.s))]
        n = len(args.s)
    else:
        n = args.n
        if n > 8:
            raise ValueError("full tables stop at n = 8; pass --s for larger n")
        texts = (format(v, f"0{n}b") for v in range(2**n))
        patterns = [(text, ones_mask(text)) for text in texts]
    traces = angle_traces(theta, 0.0)
    rows = []
    for text, ones in patterns:
        for j in range(1, n + 1):
            # 1..j-1 decoupled with their 1s corrected; the gap clears s_j
            rotated = ((1 << n) - 1) >> j << j
            flips = ones >> (j - 1) << (j - 1)
            tau = normal_tau(traces, mask_kinds(n, rotated, flips))
            gap = normal_tau(traces, mask_kinds(n, rotated, flips & rotated))
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
    bits = as_bits(args.s)
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
            "s": args.s, "j": args.j, "theta": theta,
            "theta_raw": args.theta, "alpha_grid": args.alpha_grid,
        }
    else:
        # s is read once; the two blocks differ in bit j's coupling, and each
        # grid point is one of them at another angle
        base = circuits.StepBlock.from_bits(bits, 0.0, args.j)
        probe = 1 << (args.j - 1)
        blocks = {
            "one": dataclasses.replace(base, flips=base.flips | probe),
            "zero": dataclasses.replace(base, flips=base.flips & ~probe),
        }
        for theta in parse_grid(args.theta_grid, angle=True):
            vals = {
                tag: infomeasures.protocol_discord(
                    dataclasses.replace(block, theta=theta), args.alpha
                ).discord
                for tag, block in blocks.items()
            }
            rows.append(
                {
                    "theta": theta,
                    "discord_bit_one": vals["one"],
                    "discord_bit_zero": vals["zero"],
                    "contrast": vals["one"] - vals["zero"],
                }
            )
        config = {
            "s": args.s, "j": args.j, "alpha": args.alpha,
            "theta_grid": args.theta_grid,
        }
    return config, {"rows": rows}


def cmd_noise_sweep(args) -> tuple[dict[str, Any], dict[str, Any]]:
    bits = as_bits(args.s)
    theta = parse_angle(args.theta)
    cfg = Dqc1Config(n=bits.size, alpha=args.alpha, p=args.p, theta=theta, seed=args.seed)
    rows: list[dict[str, Any]] = []
    config: dict[str, Any] = {"mode": args.mode, "s": args.s}
    if args.mode == "midq":
        q_grid = parse_grid(args.q_grid)
        ratios = noise.midcircuit_noise_sweep(bits, cfg, q_grid, j=args.j)
        rows = [{"q": q, "signal_ratio": r} for q, r in zip(q_grid, ratios)]
        config.update(
            theta=theta, theta_raw=args.theta, alpha=args.alpha,
            p=args.p, q_grid=args.q_grid, j=args.j,
        )
    elif args.mode == "parity":
        flips = [_integer(v, "--flips entry") for v in str(args.flips).split(",") if v != ""]
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
        taus = noise.systematic_error_sweep(bits, phi_grid, theta_grid, j=args.j)
        rows = [
            {"phi": phi, "theta": angle, "re_tau_pred": tau.real, "im_tau_pred": tau.imag}
            for (phi, angle), tau in zip(product(phi_grid, theta_grid), taus)
        ]
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
    _add_choice(
        sub, "--format", ("json", "csv"), default=default_format,
        help=f"output format (default {default_format})",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it:
    parsing leaves it unchanged, and building it costs more than most
    commands."""
    parser = _Parser(
        prog="dqc1lpn",
        description="One-clean-qubit trace estimation and parity learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="recover a hidden parity string")
    string = p.add_mutually_exclusive_group(required=True)
    string.add_argument("--s", help="hidden string, e.g. 0110")
    string.add_argument("--n", type=parse_count, help="draw an n-bit hidden string from --seed")
    p.add_argument("--alpha", type=parse_float, default=1.0, help="probe polarization")
    p.add_argument("--p", type=parse_float, default=0.0, help="readout depolarization")
    p.add_argument("--theta", default="0.5pi", help="rotation angle (pi suffix ok)")
    p.add_argument("--L", type=parse_count, default=1000, help="shots per query")
    p.add_argument("--delta", type=parse_float, default=0.01, help="target failure probability the budget is sized for")
    p.add_argument(
        "--per-bit-delta", action="store_true",
        help="spend delta per bit instead of splitting it globally",
    )
    _add_choice(p, "--backend", BACKENDS, default="closed")
    p.add_argument(
        "--queries", type=parse_count, default=None,
        help="fixed queries per bit (overrides the budget rule)",
    )
    p.add_argument(
        "--max-queries", type=parse_count, default=10**7,
        help="refuse bits that would need more queries than this",
    )
    _add_common(p, "json")

    p = sub.add_parser("trace-table", help="closed-form readout table")
    string = p.add_mutually_exclusive_group(required=True)
    string.add_argument("--s", help="one string")
    string.add_argument("--n", type=parse_count, help="every string of n <= 8 bits")
    p.add_argument("--theta", default="0.5pi")
    _add_common(p, "csv")

    p = sub.add_parser("discord-sweep", help="probe-register discord sweeps")
    p.add_argument("--s", required=True)
    p.add_argument("--j", type=parse_int, required=True, help="probed data qubit")
    p.add_argument("--theta", default="0.5pi", help="angle for --alpha-grid mode")
    p.add_argument("--alpha", type=parse_float, default=1.0, help="polarization for --theta-grid mode (default 1)")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--alpha-grid", help="sweep alpha at --theta: lo:hi:count")
    grid.add_argument("--theta-grid", help="sweep theta at --alpha: lo:hi:count (pi suffix ok)")
    _add_common(p, "csv")

    p = sub.add_parser("noise-sweep", help="error-model experiments")
    _add_choice(p, "--mode", ("midq", "parity", "systematic"), required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--theta", default="0.5pi")
    p.add_argument("--alpha", type=parse_float, default=1.0)
    p.add_argument("--p", type=parse_float, default=0.0)
    p.add_argument("--j", type=parse_int, default=None, help="probed data qubit (default: first 0 bit)")
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
