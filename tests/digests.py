"""Committed output digests of the CLI.

Each run in digests.json names a config (a shipped file under configs/, or
the config text itself) and the command line, and records what
``brushdyn.cli.main`` gave: the sha256 of stdout, stderr and the --out file
(null when none was written), and the exit code. test_digests.py replays
every run and asserts the same record, so "same bytes" is one test.

    PYTHONPATH=src python tests/digests.py

recomputes every run and rewrites digests.json. Rewriting it changes the
documented output: list each digest that moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from brushdyn import cli

ROOT = Path(__file__).resolve().parent.parent
FILE = Path(__file__).with_name("digests.json")
OUT = "out.txt"
CONFIG = "run.cfg"
COMMANDS = ("predict-r1", "simulate-r2", "classify", "sweep")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(run: dict) -> dict:
    """The record of one run, made in the current directory: its config
    text goes to run.cfg, and --out, when the command takes it, to out.txt."""
    path = str(ROOT / run["config"]) if "config" in run else CONFIG
    if "text" in run:
        Path(CONFIG).write_text(run["text"], encoding="utf-8")
    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT)
    command, *flags = run["argv"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", path, *flags])
    out = Path(OUT).read_bytes() if os.path.exists(OUT) else None
    return {
        "exit": code,
        "stdout": sha256(stdout.getvalue().encode("utf-8")),
        "stderr": sha256(stderr.getvalue().encode("utf-8")),
        "out": None if out is None else sha256(out),
    }


def runs() -> dict[str, dict]:
    """Every recorded run by name, without its record."""
    table = {}
    for config in ("reference.cfg", "alpha_sweep.cfg"):
        for command in COMMANDS:
            out = ["--out", OUT] if command in ("simulate-r2", "sweep") else []
            for form in ([], ["--json"]):
                name = " ".join([command, config, *form])
                table[name] = {"config": f"configs/{config}", "argv": [command, *out, *form]}

    # the r2_trajectory benchmark's draws, seed 1: ~20k samples each
    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench

    for index, (path, *_) in enumerate(bench.R2Trajectory({}, 1).draws):
        table[f"simulate-r2 r2_trajectory seed 1 draw {index}"] = {
            "text": Path(path).read_text(encoding="utf-8"),
            "argv": ["simulate-r2", "--out", OUT],
        }

    reference = (ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    edges = {
        "theta0 0.05 stride 7": ("record_stride = 1", "record_stride = 7\ntheta0 = 0.05"),
        "too weak to lift": ("speed = 300.0", "speed = 100.0"),
        "airborne at the window end": ("t_end = 0.5", "t_end = 0.47"),
    }
    for name, (old, new) in edges.items():
        assert reference.count(old) == 1, old
        table[f"simulate-r2 {name}"] = {
            "text": reference.replace(old, new),
            "argv": ["simulate-r2", "--out", OUT],
        }
    return table


def main() -> None:
    table = runs()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for run in table.values():
            run.update(replay(run))
    FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} runs to {FILE}")


if __name__ == "__main__":
    main()
