import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqc1lpn import cli, lpn
from dqc1lpn.circuits import as_bits, bits_to_str


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
    code, out1, _ = run_cli(capsys, "learn", "--n", "6", "--random-s", "--seed", "9")
    assert code == 0
    code, out2, _ = run_cli(capsys, "learn", "--n", "6", "--random-s", "--seed", "9")
    assert out1 == out2
    s = json.loads(out1)["config"]["s"]
    assert len(s) == 6 and set(s) <= {"0", "1"}


GOLDEN = Path(__file__).parent / "golden"

#: learn runs whose stdout is pinned in tests/golden.  The budget-rule and
#: sampled runs (readme-sampled, csv-per-bit-delta) will change on purpose
#: once the query budget takes its gap from the rotation angle and the
#: sampler draws one binomial per quadrature (ROADMAP item 1); that change
#: must say so and rewrite these files.
LEARN_GOLDEN = {
    "closed-n40": (
        ("--backend", "closed", "--queries", "1", "--n", "40", "--random-s"),
        "learn-closed-n40.out",
    ),
    "dense-n6": (
        ("--backend", "dense", "--n", "6", "--random-s", "--queries", "1"),
        "learn-dense-n6.out",
    ),
    "readme-sampled": (
        ("--s", "0110", "--alpha", "0.8", "--p", "0.2", "--backend", "sampled",
         "--L", "1000", "--seed", "3"),
        "learn-sampled-readme.out",
    ),
    "csv-per-bit-delta": (
        ("--s", "01101", "--backend", "sampled", "--alpha", "0.6", "--p", "0.3",
         "--L", "200", "--per-bit-delta", "--format", "csv", "--seed", "5"),
        "learn-sampled-per-bit-delta.csv",
    ),
}


@pytest.mark.parametrize("name", list(LEARN_GOLDEN))
def test_learn_bytes_unchanged(capsys, name):
    argv, golden = LEARN_GOLDEN[name]
    code, out, _ = run_cli(capsys, "learn", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


#: systematic sweeps whose stdout is pinned in tests/golden: the README grid
#: and a tilted grid on 12 qubits, the largest dense block.
SYSTEMATIC_GOLDEN = {
    "readme": (
        ("--s", "0110", "--phi-grid", "0:0.4pi:5", "--theta-grid", "0.3:2.2:5"),
        "noise-systematic-readme.out",
    ),
    "tilted-n12": (
        ("--s", "011010011001", "--j", "4", "--phi-grid", "0.1pi,0.3pi,0.45pi",
         "--theta-grid", "0.7,2.1"),
        "noise-systematic-tilted-n12.out",
    ),
}


@pytest.mark.parametrize("name", list(SYSTEMATIC_GOLDEN))
def test_noise_sweep_systematic_bytes_unchanged(capsys, name):
    argv, golden = SYSTEMATIC_GOLDEN[name]
    code, out, _ = run_cli(capsys, "noise-sweep", "--mode", "systematic", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


#: discord sweeps whose stdout is pinned in tests/golden: the README's
#: three commands and the mirror-minimum run that CI checks.
DISCORD_GOLDEN = {
    "alpha-readme": (
        ("--s", "011", "--j", "1", "--theta", "0.5pi", "--alpha-grid", "0.1:1:10"),
        "discord-sweep-alpha-readme.out",
    ),
    "theta-readme": (
        ("--s", "011", "--j", "2", "--alpha", "0.7", "--theta-grid", "0.1pi:0.9pi:9"),
        "discord-sweep-theta-readme.out",
    ),
    "alpha-n64": (
        ("--s", "0110100110010110011010011001011001101001100101100110100110010110",
         "--j", "3", "--theta", "0.5pi", "--alpha-grid", "0.1:1:4"),
        "discord-sweep-alpha-n64.out",
    ),
    "mirror": (
        ("--s", "0110", "--j", "1", "--theta", "0.5pi", "--alpha-grid", "1"),
        "discord-sweep-mirror.out",
    ),
}


@pytest.mark.parametrize("name", list(DISCORD_GOLDEN))
def test_discord_sweep_bytes_unchanged(capsys, name):
    argv, golden = DISCORD_GOLDEN[name]
    code, out, _ = run_cli(capsys, "discord-sweep", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_learn_csv_has_comment_header(capsys):
    code, out, _ = run_cli(capsys, "learn", "--s", "01", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# dqc1lpn v")
    assert "s_hat=01" in lines[0]
    assert lines[1].split(",")[:2] == ["j", "ex"]
    assert len(lines) == 4


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "learn", "--s", "0110", "--alpha", "2.0")[0] == 2
    assert run_cli(capsys, "learn")[0] == 2
    assert run_cli(capsys, "learn", "--s", "012")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    # probe indices outside 1..n
    for argv in (
        ("--mode", "midq", "--s", "0110", "--j", "9"),
        ("--mode", "midq", "--s", "0110", "--j", "0"),
        ("--mode", "parity", "--s", "0110", "--flips", "2", "--j", "7"),
        ("--mode", "systematic", "--s", "0110", "--j", "-1"),
    ):
        assert run_cli(capsys, "noise-sweep", *argv)[0] == 2
    # non-finite angles and shot counts beyond the sampler's int64 range
    for argv in (
        ("learn", "--s", "0110", "--theta", "nanpi"),
        ("noise-sweep", "--mode", "systematic", "--s", "0110", "--phi-grid", "nan"),
        ("learn", "--s", "01", "--backend", "sampled",
         "--L", "100000000000000000000000", "--queries", "1"),
        # an unwritable --out path, and a dense block past circuits.MAX_QUBITS
        ("coherence", "--out", "/nonexistent/dir/x.csv"),
        ("learn", "--backend", "dense", "--n", "13", "--random-s"),
        # midq signals that are exactly zero: no rotation, no polarization
        ("noise-sweep", "--mode", "midq", "--s", "0110", "--theta", "0", "--j", "1"),
        ("noise-sweep", "--mode", "midq", "--s", "0110", "--alpha", "0"),
        # empty grids, a trace table below one qubit
        ("noise-sweep", "--mode", "systematic", "--s", "0110", "--theta-grid", ""),
        ("noise-sweep", "--mode", "systematic", "--s", "0110", "--theta-grid", ","),
        ("noise-sweep", "--mode", "systematic", "--s", "0110", "--phi-grid", ""),
        ("noise-sweep", "--mode", "midq", "--s", "0110", "--q-grid", ""),
        ("discord-sweep", "--s", "011", "--j", "1", "--alpha-grid", ""),
        ("coherence", "--alpha-grid", ""),
        ("coherence", "--tau-grid", ","),
        ("trace-table", "--n", "-1"),
        ("trace-table", "--n", "0"),
        # seeds outside 0..2^64-1 on every command, and alpha outside [0, 1]
        ("coherence", "--seed", "-5"),
        ("trace-table", "--n", "2", "--seed", "18446744073709551616"),
        ("discord-sweep", "--s", "011", "--j", "1", "--alpha-grid", "0:2:3"),
        ("discord-sweep", "--s", "011", "--j", "1", "--alpha-grid", "0.5", "--seed", "-1"),
        ("discord-sweep", "--s", "011", "--j", "1", "--alpha", "1.5", "--theta-grid", "1"),
        # a grid count, and a coherence grid product, above cli.MAX_GRID_POINTS
        ("coherence", "--alpha-grid", "0:1:100000000"),
        ("coherence", "--alpha-grid", "0:1:1000", "--tau-grid", "0:1:1000"),
        ("noise-sweep", "--mode", "systematic", "--s", "0110",
         "--phi-grid", "0:1:100000", "--theta-grid", "0:1:100000"),
        # a phase flip repeated on one qubit, where two sz cancel
        ("noise-sweep", "--mode", "parity", "--s", "0110", "--flips", "2,2"),
        # learn with --n below 1
        ("learn", "--random-s", "--n", "-2"),
        ("learn", "--random-s", "--n", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
    # learn with a query count or cap below 1: the message names the flag
    for flag, value in (
        ("--queries", "-5"), ("--queries", "0"),
        ("--max-queries", "-1"), ("--max-queries", "0"),
    ):
        code, out, err = run_cli(capsys, "learn", "--s", "0110", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} {value} must be at least 1\n"
    # an unpolarized probe, with the budget rule and with fixed queries
    for backend in ("dense", "closed", "sampled"):
        for queries in ((), ("--queries", "1")):
            code, out, err = run_cli(
                capsys, "learn", "--s", "0110", "--alpha", "0", "--backend", backend,
                *queries,
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: alpha must lie in (0, 1]")


def test_budget_exhaustion_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "learn", "--n", "50", "--random-s", "--alpha", "0.1",
        "--p", "0.9", "--L", "10", "--max-queries", "100",
    )
    assert code == 3
    assert "error" in err


def test_budget_exhaustion_message_is_short(capsys):
    """Bit 1 of 2100 needs exactly 2^2096 queries: printed as a power of
    two rather than a 631-digit integer."""
    code, out, err = run_cli(capsys, "learn", "--n", "2100", "--random-s")
    assert code == 3
    assert out == ""
    assert "2^2096" in err
    assert len(err.strip()) < 200


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


def test_learn_closed_at_2000_qubits(capsys):
    """Closed learn stays usable at large n: one query per bit, every bit
    right."""
    code, out, _ = run_cli(
        capsys, "learn", "--backend", "closed", "--queries", "1",
        "--n", "2000", "--random-s", "--seed", "3",
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


def test_trace_table_refuses_large_enumeration(capsys):
    assert run_cli(capsys, "trace-table", "--n", "9")[0] == 2


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


#: noise-sweep --mode midq output as the one-call-per-q-point loop printed it
MIDQ_GOLDEN = {
    ("--s", "0110", "--q-grid", "0:0.05:6"): (
        '# dqc1lpn v0.1.0 command=noise-sweep seed=0 config={"mode":"midq","s":"0110",'
        '"theta":1.5707963267948966,"theta_raw":"0.5pi","alpha":1.0,"p":0.0,'
        '"q_grid":"0:0.05:6","j":null}\n'
        "q,signal_ratio\n0,1\n0.01,0.9801\n0.02,0.9604\n0.03,0.9409\n"
        "0.04,0.9216\n0.05,0.9025\n"
    ),
    (
        "--s", "0110100110010110", "--j", "4", "--theta", "0.3pi",
        "--alpha", "0.6", "--q-grid", "0.2,0.013,0,0.11",
    ): (
        '# dqc1lpn v0.1.0 command=noise-sweep seed=0 config={"mode":"midq",'
        '"s":"0110100110010110","theta":0.9424777960769379,"theta_raw":"0.3pi",'
        '"alpha":0.6,"p":0.0,"q_grid":"0.2,0.013,0,0.11","j":4}\n'
        "q,signal_ratio\n0.2,0.16777216\n0.013,0.900610946612\n0,1\n"
        "0.11,0.39365888057\n"
    ),
}


@pytest.mark.parametrize("argv", list(MIDQ_GOLDEN), ids=["readme", "listed-grid"])
def test_noise_sweep_midq_bytes_unchanged(capsys, argv):
    code, out, _ = run_cli(capsys, "noise-sweep", "--mode", "midq", *argv)
    assert code == 0
    assert out == MIDQ_GOLDEN[argv]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--s", "0000", "--q-grid", "0.3"), "mid-circuit rate q outside"),
        (("--s", "0000", "--q-grid", "0.1,0.3"), "all-zero string"),
        (("--s", "0110", "--q-grid", "0.1,0.3"), "mid-circuit rate q outside"),
        (("--s", "0110", "--theta", "0", "--j", "1", "--q-grid", "0.5"),
         "mid-circuit rate q outside"),
        (("--s", "0110", "--theta", "0", "--j", "1", "--q-grid", "0.1,0.5"),
         "noiseless signal vanishes"),
    ],
)
def test_noise_sweep_midq_refuses_as_per_point_calls(capsys, argv, message):
    """The sweep checks s once, but the first q point is still checked
    before s and the block, as a one-point call would do."""
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
    code, out, _ = run_cli(
        capsys, "noise-sweep", "--mode", "systematic", "--s", "011",
        "--phi-grid", "0:0.4pi:3", "--theta-grid", "0.3,1.57",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    for line in lines[2:]:
        assert float(line.split(",")[-1]) < 1e-10


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
    assert len(fields) == 4 * 7
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
    assert out.splitlines()[2] == "1,0.451687929294,1.57079632679,0.83107779394"


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


def test_discord_sweep_rejects_two_grids(capsys):
    code = run_cli(
        capsys, "discord-sweep", "--s", "011", "--j", "1",
        "--alpha-grid", "0.5,1", "--theta-grid", "1,2", "--alpha", "0.5",
    )[0]
    assert code == 2


def test_out_files_are_reproducible(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "learn", "--n", "5", "--random-s", "--backend", "sampled",
            "--seed", "21", "--format", "csv", "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


CACHED_PARSER_CALLS = [
    ("learn", "--help"),
    ("learn", "--s", "012"),
    ("learn", "--s", "0110", "--per-bit-delta"),
    ("learn", "--s", "0110"),
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
        assert [run[argv][0] for argv in CACHED_PARSER_CALLS] == [0, 2, 0, 0, 0, 0, 0, 0]
        assert run[CACHED_PARSER_CALLS[0]][1].startswith("usage: dqc1lpn learn")
        flagged, plain = (json.loads(run[argv][1]) for argv in CACHED_PARSER_CALLS[2:4])
        assert flagged["config"]["per_bit_delta"] is True
        assert plain["config"]["per_bit_delta"] is False


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
        ("learn", "--backend", "closed", "--queries", "1", "--n", "40", "--random-s"),
        ("learn", "--backend", "dense", "--n", "5", "--random-s", "--queries", "1"),
        ("trace-table", "--n", "2"),
        ("discord-sweep", "--s", "011", "--j", "1", "--alpha-grid", "0.1:1:4"),
        ("discord-sweep", "--s", "011", "--j", "2", "--alpha", "0.7",
         "--theta-grid", "0.1pi:0.9pi:3"),
        ("noise-sweep", "--mode", "midq", "--s", "0110", "--q-grid", "0:0.05:3"),
        ("noise-sweep", "--mode", "parity", "--s", "0110", "--flips", "2,3"),
        ("noise-sweep", "--mode", "systematic", "--s", "0110",
         "--phi-grid", "0:0.4pi:2", "--theta-grid", "0.3:2.2:2"),
        ("coherence", "--alpha-grid", "0.1:1:3", "--tau-grid", "0:1:3"),
    ],
)
def test_json_output_is_indent_two_bytes(argv):
    """The serializer writes exactly json.dumps(payload, indent=2) for every
    subcommand and learn backend."""
    args = cli._build_parser().parse_args([*argv, "--format", "json"])
    config, results = getattr(cli, "cmd_" + args.command.replace("-", "_"))(args)
    payload = _payload(args.command, config, results, args.seed)
    assert cli._serialize(payload, "json") == json.dumps(payload, indent=2) + "\n"


# pieces that could confuse a serializer splitting on "}," and newlines
_TEXT = st.lists(
    st.sampled_from(["a", "\n", '"', "},", "},\n  {", "{", "]", ": ", "\\", "é", "漢", "\x00"])
    | st.characters(),
    max_size=6,
).map("".join)
_SCALAR = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT
)
# json.dumps also takes ints, floats, bools and None as keys and quotes them
_KEY = (
    _TEXT | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans() | st.none()
)
_FLAT_ROWS = st.lists(st.dictionaries(_KEY, _SCALAR, max_size=4), max_size=4)
_JSON_LIKE = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEY, inner, max_size=4)
    | _FLAT_ROWS,
    max_leaves=25,
)


@given(
    command=_TEXT,
    config=st.dictionaries(_KEY, _SCALAR, max_size=5),
    results=st.dictionaries(_KEY, _JSON_LIKE | _FLAT_ROWS, max_size=4),
    seed=st.integers(0, 2**64 - 1),
)
def test_serialize_matches_json_indent_two(command, config, results, seed):
    payload = _payload(command, config, results, seed)
    assert cli._serialize(payload, "json") == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "results",
    [
        lambda bad: {"x": bad},
        lambda bad: {"rows": [{"a": 1.0}, {"a": bad}]},
        lambda bad: {"nested": {"deep": [[1.0, bad]]}},
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
    "argv",
    [
        # the decision threshold of bit 1 is 2^-1050.5 and 2^-1100.5
        ("learn", "--s", "0" * 2100, "--queries", "1"),
        ("learn", "--s", "0" * 2200, "--queries", "1"),
        ("trace-table", "--s", "0" * 2200),
        ("noise-sweep", "--mode", "parity", "--s", "0" * 2199 + "1", "--flips", "2200"),
        # 0.8^3200 is about 2^-1030
        ("noise-sweep", "--mode", "midq", "--s", "0" + "1" * 3200, "--q-grid", "0.2"),
        # (sin(5e-301))^11: the predicted trace flushes to 0
        ("noise-sweep", "--mode", "systematic", "--s", "011111111111",
         "--theta-grid", "1e-300", "--phi-grid", "0"),
        # sin(5e-324) cos(0.4pi) rounds to 0.0, an underflow, not a vanishing factor
        ("noise-sweep", "--mode", "systematic", "--s", "01", "--j", "1",
         "--theta-grid", "1e-323", "--phi-grid", "0.4pi"),
    ],
    ids=[
        "learn-2100", "learn-2200", "trace-table", "parity", "midq", "systematic",
        "systematic-tilted",
    ],
)
def test_readout_below_smallest_normal_exits_two(capsys, argv):
    """A printed value that is nonzero but below 2^-1022 would be subnormal
    or 0; the command exits 2 and names the limit instead."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "2^-1022" in err


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
