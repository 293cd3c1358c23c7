import contextlib
import io
import itertools
import json
import math
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1lpn import cli, lpn
from dqc1lpn.circuits import StepBlock, as_bits, bits_to_str


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload(command, config, results, seed):
    """The run record ``cli.main`` serializes, in its key order."""
    return {
        "command": command, "version": cli.__version__, "seed": seed,
        "config": config, "results": results,
    }


def test_parse_angle():
    assert cli.parse_angle("1.5") == 1.5
    assert cli.parse_angle("0.5pi") == pytest.approx(math.pi / 2)
    assert cli.parse_angle("pi") == pytest.approx(math.pi)
    assert cli.parse_angle("-pi") == pytest.approx(-math.pi)
    assert cli.parse_angle("2PI") == pytest.approx(2 * math.pi)
    with pytest.raises(ValueError):
        cli.parse_angle("abcpiabc")


@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_parse_angle_pi_suffix_scales(x):
    assert cli.parse_angle(f"{x!r}pi") == pytest.approx(x * math.pi, abs=1e-12)


def test_parse_grid_forms():
    assert cli.parse_grid("0:1:3") == [0.0, 0.5, 1.0]
    assert cli.parse_grid("0.25,0.75") == [0.25, 0.75]
    assert cli.parse_grid("0:pi:2", angle=True) == [0.0, pytest.approx(math.pi)]
    with pytest.raises(ValueError):
        cli.parse_grid("0:1:0")
    with pytest.raises(ValueError):
        cli.parse_grid("0:1:2:3")
    for empty in ("", ","):
        with pytest.raises(ValueError):
            cli.parse_grid(empty)


def test_learn_json_payload(capsys):
    code, out, err = run_cli(
        capsys, "learn", "--s", "0110", "--backend", "closed", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "learn"
    assert record["results"]["s_hat"] == "0110"
    assert record["results"]["success"] is True
    rows = record["results"]["rows"]
    assert [row["j"] for row in rows] == [1, 2, 3, 4]
    assert [row["bit"] for row in rows] == [0, 1, 1, 0]
    assert "finished" in err


def test_learn_sampled_recovers_string(capsys):
    code, out, _ = run_cli(
        capsys, "learn", "--s", "101", "--backend", "sampled",
        "--L", "2000", "--queries", "50", "--seed", "5",
    )
    assert code == 0
    assert json.loads(out)["results"]["s_hat"] == "101"


def test_learn_random_string_is_seeded(capsys):
    code, out1, _ = run_cli(capsys, "learn", "--n", "6", "--seed", "9")
    assert code == 0
    code, out2, _ = run_cli(capsys, "learn", "--n", "6", "--seed", "9")
    assert out1 == out2
    s = json.loads(out1)["config"]["s"]
    assert len(s) == 6 and set(s) <= {"0", "1"}


@pytest.mark.parametrize("argv", [["--s", "0110"], ["--n", "6", "--seed", "9"]],
                         ids=["s", "n"])
def test_learn_plans_once_before_the_oracle(capsys, monkeypatch, argv):
    """``cmd_learn`` asks ``lpn.plan`` once per run, before it builds the
    oracle, for a given string and a drawn one alike."""
    calls = []
    for name in ("plan", "make_oracle"):
        def recorder(*args, _name=name, _call=getattr(lpn, name), **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(lpn, name, recorder)
    code, _, err = run_cli(capsys, "learn", *argv)
    assert code == 0, err
    assert calls == ["plan", "make_oracle"]


GOLDEN = Path(__file__).parent / "golden"

_S64 = "0110100110010110011010011001011001101001100101100110100110010110"

#: runs whose stdout is pinned, by their file in tests/golden: the README's
#: example of every command, and runs off its defaults.  The two sampled
#: learn files pin the shot sampler's stream too (Philox4x64 keyed by
#: --seed, read k of bit j at counter (0, 0, k, j)): a change of stream
#: changes them on purpose, and must say so and rewrite them.
GOLDEN_RUNS = {
    "learn-closed-n40.out": "learn --backend closed --queries 1 --n 40",
    "learn-dense-n6.out": "learn --backend dense --n 6 --queries 1",
    "learn-sampled-readme.out":
        "learn --s 0110 --alpha 0.8 --p 0.2 --backend sampled --L 1000 --seed 3",
    "learn-sampled-per-bit-delta.csv": "learn --s 01101 --backend sampled --alpha 0.6 "
        "--p 0.3 --L 200 --per-bit-delta --format csv --seed 5",
    # off theta = pi/2, alpha = 1 and p = 0, so every threshold and reading
    # pins the rounding of the gap factor, the trace and the readout scale
    "learn-closed-theta1.1-n64.out": "learn --backend closed --queries 1 --n 64 "
        "--theta 1.1 --alpha 0.7 --p 0.2 --seed 4",
    "learn-dense-theta2.4-n8.out": "learn --backend dense --queries 1 --n 8 "
        "--theta 2.4 --alpha 0.9 --p 0.1 --seed 4",
    "trace-table-readme.out": "trace-table --n 3 --theta 0.5pi",
    # a table of another command through the JSON writer
    "trace-table-n2.json": "trace-table --n 2 --format json",
    "discord-sweep-alpha-readme.out":
        "discord-sweep --s 011 --j 1 --theta 0.5pi --alpha-grid 0.1:1:10",
    "discord-sweep-theta-readme.out":
        "discord-sweep --s 011 --j 2 --alpha 0.7 --theta-grid 0.1pi:0.9pi:9",
    "discord-sweep-alpha-n64.out":
        f"discord-sweep --s {_S64} --j 3 --theta 0.5pi --alpha-grid 0.1:1:4",
    # the mirror-minimum run that CI checks
    "discord-sweep-mirror.out": "discord-sweep --s 0110 --j 1 --theta 0.5pi --alpha-grid 1",
    # as the one-call-per-q-point loop printed them
    "noise-midq-readme.out": "noise-sweep --mode midq --s 0110 --q-grid 0:0.05:6",
    "noise-midq-listed-grid.out": "noise-sweep --mode midq --s 0110100110010110 --j 4 "
        "--theta 0.3pi --alpha 0.6 --q-grid 0.2,0.013,0,0.11",
    "noise-parity-readme.out": "noise-sweep --mode parity --s 0110 --flips 2,3",
    # the README grid and a tilted grid on 12 qubits, the largest dense block
    "noise-systematic-readme.out":
        "noise-sweep --mode systematic --s 0110 --phi-grid 0:0.4pi:5 --theta-grid 0.3:2.2:5",
    "noise-systematic-tilted-n12.out": "noise-sweep --mode systematic --s 011010011001 "
        "--j 4 --phi-grid 0.1pi,0.3pi,0.45pi --theta-grid 0.7,2.1",
    "coherence-readme.out": "coherence --alpha-grid 0.1:1:10 --tau-grid 0:1:11",
}


@pytest.mark.parametrize("golden", list(GOLDEN_RUNS))
def test_stdout_matches_golden(capsys, golden):
    code, out, _ = run_cli(capsys, *shlex.split(GOLDEN_RUNS[golden]))
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def _dense_deviations(capsys, argv):
    """Runs the systematic sweep `argv` and returns, row by row, the
    distance of its printed trace from the trace summed over the tilted
    block's dense diagonal (``StepBlock.dense_trace() / 2^n``)."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    opts = dict(zip(argv[1::2], argv[2::2]))
    bits = as_bits(opts["--s"])
    # the default probe is the first 0 bit
    j = int(opts["--j"]) if "--j" in opts else opts["--s"].index("0") + 1
    grid = list(itertools.product(
        cli.parse_grid(opts["--phi-grid"], angle=True),
        cli.parse_grid(opts["--theta-grid"], angle=True),
    ))
    rows = out.splitlines()[2:]
    assert len(rows) == len(grid)
    deviations = []
    for (phi, theta), row in zip(grid, rows):
        re_tau, im_tau = map(float, row.split(",")[2:])
        dense = StepBlock.from_bits(bits, theta, j, phi=phi).dense_trace() / 2**bits.size
        deviations.append(abs(complex(re_tau, im_tau) - dense))
    return deviations


@pytest.mark.parametrize("name", ["readme", "tilted-n12"])
def test_noise_sweep_systematic_goldens_match_dense_diagonal(capsys, name):
    """The pinned sweeps print the closed form; at every point of their
    grids it agrees with the dense diagonal's trace."""
    argv = shlex.split(GOLDEN_RUNS[f"noise-systematic-{name}.out"])
    assert max(_dense_deviations(capsys, argv)) < 1e-10


def test_learn_csv_has_comment_header(capsys):
    code, out, _ = run_cli(capsys, "learn", "--s", "01", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# dqc1lpn v")
    assert "s_hat=01" in lines[0]
    assert lines[1].split(",")[:2] == ["j", "ex"]
    assert len(lines) == 4


def test_budget_exhaustion_message_is_short(capsys):
    """Bit 1 of 2000 needs about 2^1995.6 queries: printed as a power of
    two rather than a 601-digit integer."""
    code, out, err = run_cli(capsys, "learn", "--n", "2000")
    assert code == 3
    assert out == ""
    assert "about 2^1995.6" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_learn_extreme_budget_inputs_exit_cleanly(capsys):
    """Subnormal and underflowing alpha, delta and L (alpha (1-p))^2 either
    give finite JSON, exit 2 or exit 3; the budget never exits 4."""
    codes = set()
    for alpha, p, delta, L, backend in itertools.product(
        ("5e-324", "1e-170", "1e-9", "1"),
        ("0", "0.9999999999999999"),
        ("5e-324", "1e-320", "0.5"),
        ("1", "1000", str(2**63 - 1)),
        ("closed", "sampled"),
    ):
        argv = (
            "learn", "--s", "0110", "--alpha", alpha, "--p", p, "--delta", delta,
            "--L", L, "--backend", backend, "--max-queries", "1000",
        )
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2, 3), (argv, err)
        if code == 0:
            json.loads(out, parse_constant=lambda c: pytest.fail(f"{argv} printed {c}"))
        codes.add(code)
    assert 0 in codes and 3 in codes


def test_learn_sampled_huge_query_count(capsys):
    """10^12 queries per bit are one binomial draw per quadrature; an array
    of Q counts ran out of memory and exited 4."""
    code, out, err = run_cli(
        capsys, "learn", "--s", "0110", "--backend", "sampled",
        "--queries", "1000000000000", "--max-queries", "1000000000000",
    )
    assert code == 0, err
    results = json.loads(out, parse_constant=lambda c: pytest.fail(f"printed {c}"))["results"]
    assert results["success"] is True
    for row in results["rows"]:
        assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))


@pytest.mark.parametrize("backend,expected", [("closed", 0), ("dense", 0), ("sampled", 2)])
def test_learn_budget_rule_with_a_400_digit_L(capsys, backend, expected):
    """With the budget rule, float(L) of --L 10^400 overflows: the analytic
    backends plan one query per bit, as L = 10^22 does, and the sampler
    refuses a read of L*Q shots beyond int64, as with --queries 1; none
    exits 4."""
    code, out, err = run_cli(
        capsys, "learn", "--s", "0110", "--L", str(10**400), "--backend", backend
    )
    assert code == expected, err
    if expected == 0:
        results = json.loads(out, parse_constant=lambda c: pytest.fail(f"printed {c}"))["results"]
        assert results["success"] is True
        assert [row["queries"] for row in results["rows"]] == [1] * 4
    else:
        assert out == "" and "int64" in err


_BIG = str(10**400)

_SHOTS_PAST_INT64 = "a read of L*Q shots exceeds 2^63 - 1, the int64 range of the shot sampler"


@pytest.mark.parametrize(
    "command,message",
    [
        ("discord-sweep --s 011 --j " + _BIG + " --alpha-grid 0.5", "probe index outside 1..3"),
        ("noise-sweep --mode midq --s 0110 --j " + _BIG, "probe index outside 1..4"),
        ("noise-sweep --mode parity --s 0110 --flips " + _BIG,
         "flip set outside data qubits 1..4"),
        # a read of more than 2^63 - 1 shots is refused before any draw
        ("learn --s 0110 --backend sampled --L " + _BIG + " --queries 1", _SHOTS_PAST_INT64),
        ("learn --s 0110 --backend sampled --queries " + _BIG + " --max-queries " + _BIG,
         _SHOTS_PAST_INT64),
    ],
    ids=["discord-j", "midq-j", "parity-flips", "sampled-L", "sampled-queries"],
)
def test_refusals_of_huge_ints_are_short(capsys, command, message):
    """A refused 400-digit argument is not echoed: exit 2, nothing on
    stdout, and a message under 200 bytes that names the bound it broke."""
    code, out, err = run_cli(capsys, *shlex.split(command))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n" and len(err) < 200


def _below_one(command, flag):
    """argparse's refusal of a count option below 1."""
    return f"dqc1lpn {command}: error: argument --{flag}: must be at least 1\n"


def _one_of(command, flags):
    """argparse's refusal of a command given neither of an exclusive pair."""
    return f"dqc1lpn {command}: error: one of the arguments {flags} is required\n"


def _not_with(command, flag, other):
    """argparse's refusal of both options of an exclusive pair."""
    return f"dqc1lpn {command}: error: argument --{flag}: not allowed with argument --{other}\n"


def _refused(id, command, message="", code=2):
    """A row of ``test_refusals_name_the_fault_not_the_input``: `command`,
    split as a shell splits it, exits `code` with one stderr line that
    starts with `message`."""
    return pytest.param(shlex.split(command), code, message, id=id)


@pytest.mark.parametrize(
    "argv,code,message",
    [
        _refused("bit-string", "trace-table --s " + "0" * 3000 + "x"),
        _refused("angle", "learn --s 0110 --theta " + "1" * 400 + "e400"),
        _refused("grid", "noise-sweep --mode systematic --s 0110 --phi-grid " + "a" * 500),
        # refused by argparse: one line, without the usage text
        _refused("seed-huge", "learn --s 0110 --seed " + _BIG),
        _refused("seed-negative", "learn --s 0110 --seed -1"),
        # counts below 1 name the flag and its bound, not the count
        _refused("queries-huge", "learn --s 0110 --queries -" + _BIG),
        _refused("max-queries-huge", "learn --s 0110 --max-queries -" + _BIG),
        _refused("n-huge", "learn --n -" + _BIG),
        _refused("trace-table-n-huge", "trace-table --n -" + _BIG),
        *(
            _refused(f"{flag}-{value}", f"learn --s 0110 --{flag} {value}",
                     _below_one("learn", flag))
            for flag, value in (("queries", -5), ("queries", 0), ("max-queries", -1),
                                ("max-queries", 0))
        ),
        _refused("L-zero", "learn --s 01 --L 0", _below_one("learn", "L")),
        # values that are no int, number or choice: the option types refuse
        # them before argparse's own message, which echoes the text
        *(
            _refused(f"{flag}-text", f"learn --s 0110 --{flag} " + "x" * 500)
            for flag in ("n", "alpha", "backend", "format", "seed")
        ),
        _refused("discord-j-text",
                 "discord-sweep --s 011 --j x" + "1" * 500 + " --alpha-grid 0.5"),
        _refused("flips-text", "noise-sweep --mode parity --s 0110 --flips " + "x" * 500),
        _refused("alpha-above-one", "learn --s 0110 --alpha 2.0"),
        # the config is read before bit 1's threshold, which is below 2^-1022 at n = 3000
        _refused("n-3000-alpha-above-one", "learn --n 3000 --alpha 2",
                 "error: alpha 2.0 outside [0, 1]\n"),
        # --s or --n, not both; --random-s is no option
        _refused("learn-without-string", "learn", _one_of("learn", "--s --n")),
        _refused("learn-s-and-random-s", "learn --s 0110 --random-s",
                 "dqc1lpn: error: unrecognized arguments: --random-s\n"),
        _refused("learn-n-and-random-s", "learn --n 4 --random-s",
                 "dqc1lpn: error: unrecognized arguments: --random-s\n"),
        _refused("learn-random-s-without-n", "learn --random-s", _one_of("learn", "--s --n")),
        _refused("learn-n-disagrees", "learn --s 0110 --n 3", _not_with("learn", "n", "s")),
        _refused("learn-n-agrees", "learn --s 0110 --n 4", _not_with("learn", "n", "s")),
        _refused("string-not-bits", "learn --s 012"),
        _refused("no-such-command", "no-such-command"),
        # probe indices outside 1..n
        _refused("midq-j-past-n", "noise-sweep --mode midq --s 0110 --j 9"),
        _refused("midq-j-zero", "noise-sweep --mode midq --s 0110 --j 0"),
        _refused("parity-j-past-n", "noise-sweep --mode parity --s 0110 --flips 2 --j 7"),
        _refused("systematic-j-negative", "noise-sweep --mode systematic --s 0110 --j -1"),
        # non-finite angles and shot counts beyond the sampler's int64 range
        _refused("theta-nan", "learn --s 0110 --theta nanpi", "error: angle is not finite\n"),
        _refused("phi-grid-nan", "noise-sweep --mode systematic --s 0110 --phi-grid nan",
                 "error: angle is not finite\n"),
        _refused("sampled-L-past-int64",
                 "learn --s 01 --backend sampled --L 100000000000000000000000 --queries 1",
                 f"error: {_SHOTS_PAST_INT64}\n"),
        # an unwritable --out path, and a dense block past circuits.MAX_QUBITS
        _refused("out-unwritable", "coherence --out /nonexistent/dir/x.csv"),
        _refused("dense-n13", "learn --backend dense --n 13"),
        _refused("dense-n13-queries",
                 "learn --backend dense --n 13 --queries 1 --seed 3"),
        # midq signals that are exactly zero: no rotation, no polarization
        _refused("midq-theta-zero", "noise-sweep --mode midq --s 0110 --theta 0 --j 1"),
        _refused("midq-alpha-zero", "noise-sweep --mode midq --s 0110 --alpha 0"),
        # empty grids, a trace table below one qubit or past the n = 8 of a full one
        _refused("theta-grid-empty", "noise-sweep --mode systematic --s 0110 --theta-grid ''"),
        _refused("theta-grid-comma", "noise-sweep --mode systematic --s 0110 --theta-grid ,"),
        _refused("phi-grid-empty", "noise-sweep --mode systematic --s 0110 --phi-grid ''"),
        _refused("q-grid-empty", "noise-sweep --mode midq --s 0110 --q-grid ''"),
        _refused("alpha-grid-empty", "discord-sweep --s 011 --j 1 --alpha-grid ''"),
        _refused("coherence-alpha-grid-empty", "coherence --alpha-grid ''"),
        _refused("tau-grid-comma", "coherence --tau-grid ,"),
        _refused("trace-table-n-negative", "trace-table --n -1", _below_one("trace-table", "n")),
        _refused("trace-table-n-zero", "trace-table --n 0", _below_one("trace-table", "n")),
        _refused("trace-table-n-disagrees", "trace-table --n 3 --s 01",
                 _not_with("trace-table", "s", "n")),
        _refused("trace-table-n-agrees", "trace-table --s 01 --n 2",
                 _not_with("trace-table", "n", "s")),
        _refused("trace-table-without-string", "trace-table", _one_of("trace-table", "--s --n")),
        _refused("trace-table-n9", "trace-table --n 9", "error: full tables stop at n = 8"),
        # seeds outside 0..2^64-1 on every command, and alpha outside [0, 1]
        _refused("coherence-seed-negative", "coherence --seed -5"),
        _refused("trace-table-seed-2^64", "trace-table --n 2 --seed 18446744073709551616"),
        _refused("alpha-grid-past-one", "discord-sweep --s 011 --j 1 --alpha-grid 0:2:3"),
        _refused("discord-seed-negative",
                 "discord-sweep --s 011 --j 1 --alpha-grid 0.5 --seed -1"),
        _refused("discord-alpha-past-one",
                 "discord-sweep --s 011 --j 1 --alpha 1.5 --theta-grid 1"),
        _refused("discord-two-grids", "discord-sweep --s 011 --j 1 --alpha-grid 0.5,1 "
                 "--theta-grid 1,2 --alpha 0.5",
                 _not_with("discord-sweep", "theta-grid", "alpha-grid")),
        _refused("discord-without-grid", "discord-sweep --s 011 --j 1",
                 _one_of("discord-sweep", "--alpha-grid --theta-grid")),
        # a grid count, and a coherence grid product, above cli.MAX_GRID_POINTS
        _refused("grid-count-cap", "coherence --alpha-grid 0:1:100000000"),
        _refused("coherence-product-cap", "coherence --alpha-grid 0:1:1000 --tau-grid 0:1:1000"),
        _refused("systematic-product-cap", "noise-sweep --mode systematic --s 0110 "
                 "--phi-grid 0:1:100000 --theta-grid 0:1:100000"),
        # a phase flip repeated on one qubit, where two sz cancel
        _refused("parity-flip-repeated", "noise-sweep --mode parity --s 0110 --flips 2,2"),
        _refused("learn-n-negative", "learn --n -2", _below_one("learn", "n")),
        _refused("learn-n-zero", "learn --n 0", _below_one("learn", "n")),
        # an unpolarized probe, with the budget rule and with fixed queries, on
        # each backend (closed is the default)
        *(
            _refused(f"unpolarized-{backend}{'-queries' * bool(queries)}",
                     f"learn --s 0110 --alpha 0 {flag} {queries}",
                     "error: alpha must lie in (0, 1]")
            for backend, flag in (
                ("dense", "--backend dense"), ("closed", ""), ("sampled", "--backend sampled"),
            )
            for queries in ("", "--queries 1")
        ),
        # budgets past --max-queries exit 3: L alpha^2 past float range is not
        # past the exact integer ceiling, and at theta = 1 bit 1 of 14 needs
        # more than the default cap of 10^7
        _refused("budget-exhausted", "learn --n 50 --alpha 0.1 --p 0.9 --L 10 "
                 "--max-queries 100", "error: bit 1 needs", code=3),
        _refused("budget-alpha-1e-170", "learn --s 0110 --alpha 1e-170",
                 "error: bit 1 needs about 2^1128.1 queries", code=3),
        _refused("budget-theta1-n14", "learn --n 14 --theta 1.0 --alpha 0.8 "
                 "--p 0.2 --L 1000 --backend sampled", "error: bit 1 needs 28312084 queries",
                 code=3),
    ],
)
def test_refusals_name_the_fault_not_the_input(capsys, argv, code, message):
    """A refusal, by a command or by argparse, exits 2 (3 for a budget past
    --max-queries), prints nothing on stdout and one line under 200 bytes
    on stderr, and does not echo a long value back."""
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(message) and err.endswith("\n") and err.count("\n") == 1, err
    assert len(err) < 200, err


#: a decimal integer past Python's limit for int() of a string
_LONG_INT = "1" * (sys.get_int_max_str_digits() + 700)


@pytest.mark.parametrize(
    "command,message",
    [
        ("learn --s 0110 --L " + _LONG_INT, "dqc1lpn learn: error: argument --L: "),
        ("learn --s 0110 --seed -" + _LONG_INT, "dqc1lpn learn: error: argument --seed: "),
        ("coherence --alpha-grid 0:1:" + _LONG_INT, "error: grid count is "),
        ("noise-sweep --mode parity --s 0110 --flips 1," + _LONG_INT, "error: --flips entry is "),
    ],
    ids=["learn-L", "seed", "grid-count", "flips"],
)
def test_refusals_of_long_integers_name_the_digit_limit(capsys, command, message):
    """An integer too long for int() is refused as one, not as text that is
    no integer, in one short line that does not echo it."""
    code, out, err = run_cli(capsys, *shlex.split(command))
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"{message}an integer longer than Python's {limit}-digit limit\n"
    assert len(err) < 200


def test_learn_closed_at_2000_qubits(capsys):
    """Closed learn stays usable at large n: one query per bit, every bit
    right."""
    code, out, _ = run_cli(
        capsys, "learn", "--backend", "closed", "--queries", "1",
        "--n", "2000", "--seed", "3",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["success"] is True
    assert len(results["rows"]) == 2000


def test_trace_table_full_enumeration(capsys):
    code, out, _ = run_cli(capsys, "trace-table", "--n", "2", "--theta", "0.5pi")
    assert code == 0
    lines = out.splitlines()
    # 4 strings x 2 steps plus comment and header
    assert len(lines) == 10
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["s"] == "00"
    assert float(row["re_tau"]) == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_trace_table_matches_library(capsys):
    code, out, _ = run_cli(capsys, "trace-table", "--s", "0110", "--theta", "1.1")
    assert code == 0
    lines = out.splitlines()
    header = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        j = int(row["j"])
        tau = lpn.closed_form_tau(as_bits("0110"), 1.1, j, decoupled=range(1, j))
        assert float(row["re_tau"]) == pytest.approx(tau.real, abs=1e-10)
        assert float(row["im_tau"]) == pytest.approx(tau.imag, abs=1e-10)


def test_trace_table_matches_library_at_300_qubits(capsys):
    """Each row's tau and gap, read from two bitmasks, equal the library's
    closed form for the string and for it with s_j cleared, bit for bit."""
    bits = np.random.default_rng(7).integers(0, 2, size=300, dtype=np.uint8)
    code, out, _ = run_cli(
        capsys, "trace-table", "--s", bits_to_str(bits), "--theta", "1.1",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [row["j"] for row in rows] == list(range(1, 301))
    for row in rows:
        j = row["j"]
        tau = lpn.closed_form_tau(bits, 1.1, j, decoupled=range(1, j))
        cleared = bits.copy()
        cleared[j - 1] = 0
        gap = lpn.closed_form_tau(cleared, 1.1, j, decoupled=range(1, j))
        assert complex(row["re_tau"], row["im_tau"]) == tau
        assert row["abs_delta_tau"] == abs(gap)


def test_coherence_values(capsys):
    code, out, _ = run_cli(
        capsys, "coherence", "--alpha-grid", "0.5,1", "--tau-grid", "0,1"
    )
    assert code == 0
    lines = out.splitlines()
    values = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[2:]}
    assert values[("0.5", "0")] == pytest.approx(0.188721875541, abs=1e-9)
    assert values[("1", "0")] == pytest.approx(1.0, abs=1e-12)
    assert values[("1", "1")] == pytest.approx(0.0, abs=1e-12)


def test_noise_sweep_midq_power_law(capsys):
    code, out, _ = run_cli(
        capsys, "noise-sweep", "--mode", "midq", "--s", "0110",
        "--q-grid", "0:0.2:3",
    )
    assert code == 0
    for line in out.splitlines()[2:]:
        q, ratio = (float(v) for v in line.split(","))
        assert ratio == pytest.approx((1 - q) ** 2, abs=1e-10)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--s", "0000", "--q-grid", "0.3"), "mid-circuit rate q outside"),
        (("--s", "0000", "--q-grid", "0.1"), "all-zero string"),
        (("--s", "0110", "--q-grid", "0.1,0.3"), "mid-circuit rate q outside"),
        (("--s", "0110", "--theta", "0", "--j", "1", "--q-grid", "0.5"),
         "mid-circuit rate q outside"),
        (("--s", "0110", "--theta", "0", "--j", "1", "--q-grid", "0.1"),
         "noiseless signal vanishes"),
        # an all-zero s and a vanishing block, each with a bad rate after a good one
        (("--s", "0000", "--q-grid", "0.1,0.3"), "mid-circuit rate q outside"),
        (("--s", "0110", "--theta", "0", "--j", "1", "--q-grid", "0.1,0.5"),
         "mid-circuit rate q outside"),
    ],
)
def test_noise_sweep_midq_refuses_as_per_point_calls(capsys, argv, message):
    """A grid with one fault is refused with the message a one-point call
    on the offending point gives: a bad rate anywhere in the grid, then an
    all-zero s, then a vanishing block."""
    code, out, err = run_cli(capsys, "noise-sweep", "--mode", "midq", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_noise_sweep_parity_cancellation(capsys):
    code, out, _ = run_cli(
        capsys, "noise-sweep", "--mode", "parity", "--s", "0110",
        "--flips", "2,3",
    )
    assert code == 0
    row = out.splitlines()[2].split(",")
    assert row[0] == "2;3"
    assert float(row[-1]) == pytest.approx(0.0, abs=1e-12)


def test_noise_sweep_systematic_deviation_small(capsys):
    deviations = _dense_deviations(
        capsys, shlex.split("noise-sweep --mode systematic --s 011 --phi-grid 0:0.4pi:3 "
                            "--theta-grid 0.3,1.57"),
    )
    assert len(deviations) == 6
    assert max(deviations) < 1e-10


def test_noise_sweep_systematic_at_2000_qubits(capsys):
    """The closed form runs past any dense block: five default tilts by two
    angles, all finite."""
    argv = ("noise-sweep", "--mode", "systematic", "--s", "0" * 2000, "--theta-grid", "0.3,1.0")
    code, out, _ = run_cli(capsys, *argv)
    assert (code, len(out.splitlines())) == (0, 2 + 10) and _finite_csv(out)


@pytest.mark.parametrize("s, j", [("0111", "2"), ("01", "1")])
def test_noise_sweep_systematic_prints_no_negative_zero(capsys, s, j):
    """cos(phi)^m < 0 with a zero component printed -0 when the prediction
    multiplied the untilted trace by cos(phi)^m."""
    code, out, _ = run_cli(
        capsys, "noise-sweep", "--mode", "systematic", "--s", s, "--j", j,
        "--phi-grid", "0.6pi,0.7pi", "--theta-grid", "1,2",
    )
    assert code == 0
    fields = [v for line in out.splitlines()[2:] for v in line.split(",")]
    assert len(fields) == 4 * 4
    assert "-0" not in fields


def test_discord_sweep_alpha_mode(capsys):
    code, out, _ = run_cli(
        capsys, "discord-sweep", "--s", "011", "--j", "1",
        "--alpha-grid", "0.4,0.8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split(",")[0] == "alpha"
    discords = [float(line.split(",")[1]) for line in lines[2:]]
    assert discords[0] < discords[1]


def test_discord_sweep_reports_the_angle_below_its_mirror(capsys):
    """The objective is even with period pi: of the mirror minima phi* and
    pi - phi*, the one in the searched [0, pi/2] is printed."""
    code, out, _ = run_cli(
        capsys, "discord-sweep", "--s", "0110", "--j", "1", "--theta", "0.5pi",
        "--alpha-grid", "1",
    )
    assert code == 0
    assert out.splitlines()[2] == "1,0.451687929294,1.57079632679,0.831077909159"


def test_discord_sweep_theta_mode(capsys):
    code, out, _ = run_cli(
        capsys, "discord-sweep", "--s", "011", "--j", "2",
        "--theta-grid", "0.5pi,0.25pi", "--alpha", "0.7",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split(",")[-1] == "contrast"
    for line in lines[2:]:
        assert float(line.split(",")[-1]) != 0.0


def test_discord_sweep_theta_grid_defaults_alpha_to_one(capsys):
    """--theta-grid without --alpha sweeps at alpha = 1, the default of
    every command that takes --alpha."""
    code, out, _ = run_cli(capsys, "discord-sweep", "--s", "011", "--j", "1", "--theta-grid", "1")
    assert code == 0
    assert '"alpha":1.0' in out.splitlines()[0]


def test_out_files_are_reproducible(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "learn", "--n", "5", "--backend", "sampled",
            "--seed", "21", "--format", "csv", "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


CACHED_PARSER_CALLS = [
    ("learn", "--help"),
    ("learn", "--s", "012"),
    ("learn", "--s", "0110", "--per-bit-delta"),
    ("learn", "--s", "0110"),
    ("trace-table", "--n", "2", "--format", "json"),
    ("trace-table", "--n", "2"),
    ("discord-sweep", "--s", "011", "--j", "1", "--alpha-grid", "0.5"),
    ("noise-sweep", "--mode", "midq", "--s", "0110", "--q-grid", "0:0.05:2"),
    ("coherence", "--alpha-grid", "0.5", "--tau-grid", "0.5"),
]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """One parser serves every call in a process, and no call's flags leak
    into the next: each command gives the same exit code and stdout run
    forwards or backwards through the list."""
    assert cli._build_parser() is cli._build_parser()
    runs = [
        {argv: run_cli(capsys, *argv)[:2] for argv in calls}
        for calls in (CACHED_PARSER_CALLS, CACHED_PARSER_CALLS[::-1])
    ]
    assert runs[0] == runs[1]
    for run in runs:
        assert [run[argv][0] for argv in CACHED_PARSER_CALLS] == [0, 2, 0, 0, 0, 0, 0, 0, 0]
        assert run[CACHED_PARSER_CALLS[0]][1].startswith("usage: dqc1lpn learn")
        flagged, plain = (json.loads(run[argv][1]) for argv in CACHED_PARSER_CALLS[2:4])
        assert flagged["config"]["per_bit_delta"] is True
        assert plain["config"]["per_bit_delta"] is False
        # a --format choice does not become the next call's default
        as_json, as_csv = (run[argv][1] for argv in CACHED_PARSER_CALLS[4:6])
        assert as_json == (GOLDEN / "trace-table-n2.json").read_text()
        assert as_csv.splitlines()[1] == "s,j,decoupled_prefix,re_tau,im_tau,abs_delta_tau"


def test_unexpected_error_exits_four(capsys, monkeypatch):
    def broken(args):
        raise TypeError("boom")

    monkeypatch.setattr(cli, "cmd_coherence", broken)
    code, out, err = run_cli(capsys, "coherence")
    assert code == 4
    assert out == ""
    assert "internal error: boom" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("learn", "--s", "0110", "--alpha", "0.8", "--p", "0.2", "--backend", "sampled",
         "--L", "1000", "--seed", "3"),
        ("learn", "--backend", "closed", "--queries", "1", "--n", "40"),
        ("learn", "--backend", "dense", "--n", "5", "--queries", "1"),
        ("trace-table", "--n", "2"),
        ("discord-sweep", "--s", "011", "--j", "1", "--alpha-grid", "0.1:1:4"),
        ("discord-sweep", "--s", "011", "--j", "2", "--alpha", "0.7",
         "--theta-grid", "0.1pi:0.9pi:3"),
        ("noise-sweep", "--mode", "midq", "--s", "0110", "--q-grid", "0:0.05:3"),
        ("noise-sweep", "--mode", "parity", "--s", "0110", "--flips", "2,3"),
        ("noise-sweep", "--mode", "systematic", "--s", "0110",
         "--phi-grid", "0:0.4pi:2", "--theta-grid", "0.3:2.2:2"),
        ("coherence", "--alpha-grid", "0.1:1:3", "--tau-grid", "0:1:3"),
        # row tables filled into one template at n = 2000: at pi/2, off it,
        # and with string columns; a subnormal delta; dense learn at n = 9
        ("learn", "--backend", "closed", "--queries", "1", "--n", "2000", "--seed", "3"),
        ("learn", "--backend", "closed", "--queries", "1", "--n", "2000",
         "--theta", "1.56", "--alpha", "0.7", "--p", "0.2"),
        ("trace-table", "--s", "01" * 1000),
        ("learn", "--s", "0110", "--delta", "1e-320"),
        ("learn", "--backend", "dense", "--n", "9", "--queries", "1", "--seed", "3"),
    ],
)
def test_json_output_is_indent_two_bytes(argv):
    """The serializer writes exactly json.dumps(payload, indent=2), which
    has no NaN or infinity, for every subcommand and learn backend, and
    every learn run here recovers its string."""
    args = cli._build_parser().parse_args([*argv, "--format", "json"])
    config, results = getattr(cli, "cmd_" + args.command.replace("-", "_"))(args)
    payload = _payload(args.command, config, results, args.seed)
    assert cli._serialize(payload, "json") == json.dumps(payload, indent=2) + "\n"
    assert args.command != "learn" or results["success"] is True


# pieces that could confuse a serializer splitting on "}," and newlines
_TEXT = st.lists(
    st.sampled_from(["a", "\n", '"', "},", "},\n  {", "{", "]", ": ", "\\", "é", "漢", "\x00"])
    | st.characters(),
    max_size=6,
).map("".join)
# pieces that a row template filled by "%" could misread, in keys and cells
_TRAP = st.sampled_from(["%", "%s", "%(x)s", "%%", "\x00", "a\x00%s", "%d"])
_KEY = _TEXT | _TRAP
_SCALAR = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT | _TRAP
)


@st.composite
def _tables(draw, max_rows=30):
    """1 to `max_rows` rows of scalars that share one list of string keys,
    the shape of every command's rows."""
    keys = list(dict.fromkeys(draw(st.lists(_KEY, min_size=1, max_size=9))))
    cells = st.lists(_SCALAR, min_size=len(keys), max_size=len(keys))
    return [dict(zip(keys, row)) for row in draw(st.lists(cells, min_size=1, max_size=max_rows))]


@given(
    command=_TEXT,
    config=st.dictionaries(_KEY, _SCALAR, max_size=5),
    scalars=st.dictionaries(_KEY, _SCALAR, max_size=4),
    rows=_tables(max_rows=4),
    seed=st.integers(0, 2**64 - 1),
)
def test_serialize_matches_json_indent_two(command, config, scalars, rows, seed):
    """Run records of the shape the commands build: a config of scalars,
    and results of scalars followed by the rows."""
    payload = _payload(command, config, {**scalars, "rows": rows}, seed)
    assert cli._serialize(payload, "json") == json.dumps(payload, indent=2) + "\n"


@given(table=_tables(), seed=st.integers(0, 2**64 - 1))
def test_serialize_tables_match_json_indent_two(table, seed):
    """Row tables, the rows of every command, as the top-level value and
    as results rows: exactly json.dumps(indent=2), "%" and NUL included."""
    assert cli._indented(table) == json.dumps(table, indent=2)
    payload = _payload("learn", {}, {"rows": table}, seed)
    assert cli._serialize(payload, "json") == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "results",
    [
        lambda bad: {"x": bad},
        lambda bad: {"rows": [{"a": 1.0}, {"a": bad}]},
        lambda bad: {"rows": [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": bad}]},
    ],
)
def test_serialize_refuses_non_finite_json(bad, results):
    payload = _payload("x", {}, results(bad), 0)
    with pytest.raises(cli.NonFiniteOutputError):
        cli._serialize(payload, "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_result_exits_four(capsys, monkeypatch, fmt, bad):
    def nan_row(args):
        return {}, {"rows": [{"x": bad}]}

    monkeypatch.setattr(cli, "cmd_coherence", nan_row)
    code, out, err = run_cli(capsys, "coherence", "--format", fmt)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:")
    assert "Traceback" not in err


def test_discord_sweep_at_64_qubits(capsys):
    """Far past any dense state: discord from the kind counts stays finite."""
    s = "0110100110010110" * 4
    code, out, _ = run_cli(
        capsys, "discord-sweep", "--s", s, "--j", "3",
        "--theta", "0.5pi", "--alpha-grid", "0.1:1:4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "alpha,discord,meas_theta,meas_phi"
    assert len(lines) == 6
    for line in lines[2:]:
        values = [float(v) for v in line.split(",")]
        assert all(math.isfinite(v) for v in values)
        assert values[1] >= 0.0
        assert values[2] == pytest.approx(math.pi / 2, abs=1e-11)


def test_noise_sweep_midq_and_parity_at_64_qubits(capsys):
    """The mid-circuit experiments read the step block's closed-form trace,
    so they run far past any dense state."""
    s = "0110100110010110" * 4
    m = s.count("1")
    code, out, _ = run_cli(
        capsys, "noise-sweep", "--mode", "midq", "--s", s, "--j", "1",
        "--q-grid", "0:0.05:4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "q,signal_ratio"
    assert len(lines) == 6
    # the printed q carries 12 digits; compare against the grid's own values
    for line, q in zip(lines[2:], cli.parse_grid("0:0.05:4")):
        ratio = float(line.split(",")[1])
        assert ratio == pytest.approx((1 - q) ** m, abs=1e-12)
    # 128 qubits: |tau| = 2^-63.5, far below any absolute cut-off
    code, out, _ = run_cli(
        capsys, "noise-sweep", "--mode", "midq", "--s", "01" * 64, "--j", "1",
        "--q-grid", "0:0.05:4",
    )
    assert code == 0
    for line, q in zip(out.splitlines()[2:], cli.parse_grid("0:0.05:4")):
        assert float(line.split(",")[1]) == pytest.approx((1 - q) ** 64, rel=1e-11)
    code, out, _ = run_cli(
        capsys, "noise-sweep", "--mode", "parity", "--s", s, "--flips", "2,3,5",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["flips"] == "2;3;5"
    values = [float(v) for key, v in row.items() if key != "flips"]
    assert all(math.isfinite(v) for v in values)
    # three flips on coupled qubits: an odd count reverses the readout
    assert float(row["ex"]) == -float(row["ex_clean"]) != 0.0


@pytest.mark.parametrize(
    "command",
    [
        # the decision threshold of bit 1 is 2^-1050.5 and 2^-1100.5
        "learn --s " + "0" * 2100 + " --queries 1",
        "learn --s " + "0" * 2200 + " --queries 1",
        # with the budget rule too, at any cap: no query count can read
        # a bit whose threshold is not a normal float
        "learn --s " + "0" * 2100,
        "learn --s " + "0" * 2100 + " --max-queries " + _BIG,
        "learn --n 2200",
        # bit 1's threshold is 2.225073858506798e-308, the float just below
        # 2^-1022: refused before the string is drawn, as every longer one
        "learn --n 2043 --queries 1",
        # refused before the draw: 10^11 bits would not fit in memory, and
        # numpy refuses a 10^400-bit array with a message of its own
        "learn --n 100000000000",
        "learn --n " + _BIG,
        # at n = 2000, alpha 0.7 and p 0.2 only theta within about 0.014 of
        # pi/2 keeps every threshold normal: at 1.1 bit 1's is near 10^-564
        "learn --backend closed --queries 1 --n 2000 --theta 1.1 --alpha 0.7 "
        "--p 0.2 --format json",
        "trace-table --s " + "0" * 2200,
        "noise-sweep --mode parity --s " + "0" * 2199 + "1 --flips 2200",
        # 0.8^3200 is about 2^-1030
        "noise-sweep --mode midq --s 0" + "1" * 3200 + " --q-grid 0.2",
        # (sin(5e-301))^11: the predicted trace flushes to 0
        "noise-sweep --mode systematic --s 011111111111 --theta-grid 1e-300 --phi-grid 0",
        # sin(5e-324) cos(0.4pi) rounds to 0.0, an underflow, not a vanishing factor
        "noise-sweep --mode systematic --s 01 --j 1 --theta-grid 1e-323 --phi-grid 0.4pi",
        # cos(pi/4)^2199 = 2^-1099.5: the closed form runs at any n
        "noise-sweep --mode systematic --s " + "0" * 2200 + " --theta-grid 0.5pi --phi-grid 0",
    ],
    ids=[
        "learn-2100", "learn-2200", "learn-2100-budget", "learn-2100-budget-cap",
        "learn-2200-random", "learn-2043-random", "learn-10^11-random", "learn-10^400-random",
        "learn-2000-theta1.1", "trace-table", "parity", "midq",
        "systematic", "systematic-tilted", "systematic-2200",
    ],
)
def test_readout_below_smallest_normal_exits_two(capsys, command):
    """A printed value that is nonzero but below 2^-1022 would be subnormal
    or 0; the command exits 2 and names the limit instead."""
    code, out, err = run_cli(capsys, *shlex.split(command))
    assert code == 2
    assert out == ""
    assert "2^-1022" in err


def test_learn_longest_random_string_runs(capsys):
    """n = 2042, one below the refused length, keeps every threshold normal."""
    code, out, _ = run_cli(capsys, "learn", "--n", "2042", "--queries", "1")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["s_hat"]) == 2042 and results["success"] is True


def test_discord_rows_ignore_qubit_order(capsys):
    """Strings with the same kinds of qubits give the same spectrum, so the
    rows, measurement angle included, are the same bytes."""
    rows = []
    for s in ("0101", "0011"):
        code, out, _ = run_cli(
            capsys, "discord-sweep", "--s", s, "--j", "1", "--theta", "1.3",
            "--alpha-grid", "1:1:1",
        )
        assert code == 0
        rows.append(out.splitlines()[1:])
    assert rows[0] == rows[1]


#: edge values mixed into the generated argv: non-finite, subnormal and
#: huge floats, 20- and 400-digit ints, empty and 13-bit strings, reversed,
#: empty and oversized grids
_EDGE_FLOATS = ("nan", "inf", "-inf", "5e-324", "1e308", "-0.5", "1.5")
_EDGE_INTS = ("0", "-1", str(10**19 + 7), str(10**400))
_EDGE_GRIDS = (
    "", ",", "1:0:3", "0:1:100001", "0:1:0", "nan,0.5", "inf", "5e-324,1e308",
    "0:1:" + str(10**400),
)


def _mostly(valid, edge):
    """Draws from `valid` nine times in ten, else from `edge`."""
    return st.integers(0, 9).flatmap(lambda k: edge if k == 9 else valid)


def _grid(top):
    """Valid grids over [0, top], as a list or as lo:hi:count (lo > hi too)."""
    point = st.floats(0.0, top).map(repr)
    return st.one_of(
        st.lists(point, min_size=1, max_size=3).map(",".join),
        st.tuples(point, point, st.integers(1, 4)).map(lambda t: "%s:%s:%d" % t),
    )


#: strategies of the string options, by dest; every string option of the
#: parser needs one, so a new option is drawn once it is added here
_STRING_VALUES = {
    "s": _mostly(
        st.text("01", min_size=1, max_size=8),
        st.sampled_from(("", "0" * 13, "0110100110011", "01x")),
    ),
    "theta": _mostly(
        st.one_of(st.floats(-7.0, 7.0).map(repr), st.sampled_from(("0.5pi", "0.3pi", "pi"))),
        st.sampled_from(_EDGE_FLOATS + ("0", "0pi")),
    ),
    "flips": _mostly(
        st.lists(st.integers(1, 8), max_size=3).map(lambda ks: ",".join(map(str, ks))),
        st.sampled_from(("1,1",) + _EDGE_INTS),
    ),
    "q_grid": _mostly(_grid(0.2), st.sampled_from(_EDGE_GRIDS)),
    **{
        dest: _mostly(_grid(1.0), st.sampled_from(_EDGE_GRIDS))
        for dest in ("alpha_grid", "theta_grid", "phi_grid", "tau_grid")
    },
}


#: values that argparse itself refuses for an int option; all but 1.5 are
#: refused for a float option too
_UNPARSED = ("x", "1.5", "")


def _option_values(action):
    """Argv values for one option, from its type or choices in the parser;
    the edge values include some that argparse refuses."""
    if action.choices:
        return _mostly(st.sampled_from(sorted(action.choices)), st.just("x"))
    if action.type is cli.parse_seed:
        return _mostly(
            st.integers(0, 2**64 - 1).map(str),
            st.sampled_from(("-1", str(2**64), str(10**400), "x")),
        )
    if action.type in (cli.parse_int, cli.parse_count):
        if action.dest in ("queries", "max_queries", "L"):
            # capped so that a budget-free run stays fast
            return _mostly(
                st.integers(1, 10**4).map(str), st.sampled_from(("0", "-1") + _UNPARSED)
            )
        return _mostly(st.integers(1, 12).map(str), st.sampled_from(_EDGE_INTS + _UNPARSED))
    if action.type is cli.parse_float:
        return _mostly(
            st.floats(0.0, 1.0).map(repr), st.sampled_from(_EDGE_FLOATS + _UNPARSED)
        )
    return _STRING_VALUES[action.dest]


#: options of which a command takes exactly one: the argv holds exactly
#: one of the pair nine times in ten, so that runs past argparse's refusal
#: of neither or both are not rare
_ONE_OF = {
    "learn": ("s", "n"), "trace-table": ("s", "n"),
    "discord-sweep": ("alpha_grid", "theta_grid"),
}


@st.composite
def _cli_argv(draw):
    """A command and a subset of its options (the required ones always),
    drawn from the option table of ``cli._build_parser()`` and written as
    --flag=value, so that a value such as -1 is read as a value; --out and
    --help are left out."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    name = draw(st.sampled_from(sorted(commands)))
    pair = _ONE_OF.get(name, ())
    chosen = draw(_mostly(st.sampled_from(pair), st.none())) if pair else None
    argv = [name]
    for action in commands[name]._actions:
        dest = action.dest
        if dest in ("help", "out"):
            continue
        if chosen is not None and dest in pair:
            if dest != chosen:
                continue
        elif not (action.required or draw(st.booleans())):
            continue
        flag = action.option_strings[-1]
        argv.append(flag if action.nargs == 0 else flag + "=" + draw(_option_values(action)))
    return argv


def _finite_csv(text):
    """Whether every numeric field of the CSV rows under the header is finite."""
    for line in text.splitlines()[2:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_cli_argv())
def test_cli_contract_on_generated_argv(argv):
    """Every command exits 0, 2 or 3.  Exit 0 prints JSON with no NaN or
    infinity, or CSV whose numeric fields are finite; a refusal, by the
    command or by argparse, prints nothing on stdout and a message under
    200 bytes with no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            # the parity mode's warning about idle flips; a RuntimeWarning
            # still raises, and cli.main turns it into exit 4
            warnings.simplefilter("ignore", UserWarning)
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code == 0:
        if out.startswith("{"):
            json.loads(out, parse_constant=lambda c: pytest.fail(f"{argv} printed {c}"))
        else:
            assert out.startswith("# dqc1lpn") and _finite_csv(out), argv
    else:
        assert out == "", argv
        assert "Traceback" not in err and len(err) < 200, (argv, err)
