"""Committed output digests of the CLI.

Each run in digests.json names a config (a shipped file under configs/, the
config text itself, or the seeded TestFuzz corpus of tests/test_cli.py) and
the command line, and records what ``brushdyn.cli.main`` gave: the sha256 of
stdout, stderr and the --out file (null when none was written), and the exit
code. A corpus run records, per field, the sha256 of the JSON list of its
configs' records. test_digests.py replays every run and asserts the same
record, so "same bytes" is one test.

    PYTHONPATH=src python tests/digests.py

recomputes every run and rewrites digests.json. Rewriting it changes the
documented output: list each digest that moved, and why.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from brushdyn import cli, params, regime2, sweep

from helpers import config_text

ROOT = Path(__file__).resolve().parent.parent
FILE = Path(__file__).with_name("digests.json")
OUT = "out.txt"
CONFIG = "run.cfg"
COMMANDS = ("predict-r1", "simulate-r2", "classify", "sweep")
FIELDS = ("exit", "stdout", "stderr", "out")
FORMS = ([], ["--json"])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str], path: str) -> dict:
    """The record of one cli.main run on the config at path, made in the
    current directory: --out, when the command takes it, goes to out.txt."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT)
    command, *flags = argv
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


@functools.cache
def fuzz_corpus() -> tuple[bytes, ...]:
    from test_cli import TestFuzz

    return TestFuzz.corpus()


def replay(run: dict) -> dict:
    """The record of one run, made in the current directory: its config
    text, or each config of its corpus in turn, goes to run.cfg."""
    if "corpus" in run:
        records = []
        for config in fuzz_corpus():
            Path(CONFIG).write_bytes(config)
            records.append(record(run["argv"], CONFIG))
        return {key: sha256(json.dumps([r[key] for r in records]).encode("utf-8"))
                for key in FIELDS}
    if "text" in run:
        Path(CONFIG).write_text(run["text"], encoding="utf-8")
    return record(run["argv"], str(ROOT / run["config"]) if "config" in run else CONFIG)


def r2_sweep_configs(bench, seed: int) -> list[str]:
    """The draws of the r2_sweep benchmark (bench/run.py) for one seed, as
    config text: the shipped brush, each draw's robot, motor and window, and
    its omega grid."""
    pkg = {"params": params, "regime2": regime2, "sweep": sweep}
    draws = bench.R2Sweep(pkg, seed)
    texts = []
    for spec, robot, motor, sim in draws.draws:
        sections = {name: {k: repr(v) for k, v in values._asdict().items()}
                    for name, values in (("brush", draws.brush), ("robot", robot),
                                         ("motor", motor), ("sim", sim))}
        sections["sweep"] = {"parameter": spec.parameter, "objective": spec.objective,
                             "grid": ", ".join(map(repr, spec.grid))}
        texts.append(config_text(sections))
    return texts


def runs() -> dict[str, dict]:
    """Every recorded run by name, without its record."""
    table = {}
    for config in ("reference.cfg", "alpha_sweep.cfg"):
        for command in COMMANDS:
            out = ["--out", OUT] if command in ("simulate-r2", "sweep") else []
            for form in FORMS:
                name = " ".join([command, config, *form])
                table[name] = {"config": f"configs/{config}", "argv": [command, *out, *form]}

    # the r2_trajectory benchmark's draws, seed 1: ~20k samples each; the
    # benchmark writes their configs under bench.WORK, here a scratch directory
    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench

    with tempfile.TemporaryDirectory() as work, mock.patch.object(bench, "WORK", Path(work)):
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

    # v_r_regime2 sweeps: the reference grid with that objective, and the
    # r2_sweep benchmark's draws of seed 1, in both forms
    sweeps = {"reference.cfg": reference.replace("objective = forced_amplitude_abs",
                                                 "objective = v_r_regime2")}
    assert sweeps["reference.cfg"] != reference
    for index, text in enumerate(r2_sweep_configs(bench, 1)):
        sweeps[f"r2_sweep seed 1 draw {index}"] = text
    for name, text in sweeps.items():
        for form in FORMS:
            table[" ".join(["sweep v_r_regime2", name, *form])] = {
                "text": text, "argv": ["sweep", "--out", OUT, *form]}
    # and of seeds 2-6 in table form only: --json prints the same rows and
    # argmax as the table, and the CSV is the same file
    for seed in range(2, 7):
        for index, text in enumerate(r2_sweep_configs(bench, seed)):
            table[f"sweep v_r_regime2 r2_sweep seed {seed} draw {index}"] = {
                "text": text, "argv": ["sweep", "--out", OUT]}

    # the seeded malformed configs of TestFuzz, one record per command
    for command in COMMANDS:
        out = ["--out", OUT] if command in ("simulate-r2", "sweep") else []
        for form in FORMS:
            table[" ".join([command, "TestFuzz corpus", *form])] = {
                "corpus": "tests/test_cli.py::TestFuzz", "argv": [command, *out, *form]}
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
