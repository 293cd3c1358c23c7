"""Regenerate discord_reference.json, the recorded discord values that the
``discord`` workload checks each job against (within 1e-6).

    python3 perfbench/record_discord.py     # from the repo root

Points are drawn from a fixed generator, so only the recorded values depend
on the program. Record them from a commit whose discord is trusted; the
file names that commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

from workloads import DISCORD_REFERENCE
from worker import git_commit

#: (n, number of points) per table
TABLES = {"full": (5, 8), "tiny": (3, 4)}


def record(cli, n: int, count: int, rng: random.Random) -> list[dict]:
    points = []
    for _ in range(count):
        point = {
            "s": "".join(rng.choice("01") for _ in range(n)),
            "j": rng.randint(1, n),
            "theta": rng.uniform(0.3, 0.7) * math.pi,
            "alpha": rng.uniform(0.2, 1.0),
        }
        argv = ["discord-sweep", "--s", point["s"], "--j", str(point["j"]),
                "--theta", repr(point["theta"]), "--alpha-grid", repr(point["alpha"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"discord-sweep {argv} exited {rc}")
        header, row = out.getvalue().splitlines()[1:3]
        point["discord"] = float(dict(zip(header.split(","), row.split(",")))["discord"])
        points.append(point)
    return points


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import dqc1lpn.cli as cli

    rng = random.Random("discord-reference")
    table = {"recorded_at": git_commit(root)}
    for name, (n, count) in TABLES.items():
        table[name] = record(cli, n, count, rng)
    DISCORD_REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
