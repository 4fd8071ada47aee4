"""Committed output digests of the CLI.

Each run in digests.json names a config (a shipped file under configs/, the
config text itself, or the seeded TestFuzz corpus of tests/test_cli.py) and
the command line, and records what ``brushdyn.cli.main`` gave: the sha256 of
stdout, stderr and the --out file (null when none was written), and the exit
code. A corpus run records, per field, the sha256 of the JSON list of its
configs' records. test_digests.py replays every run and asserts the same
record, so "same bytes" is one test.

    PYTHONPATH=src python tests/digests.py

recomputes every run, rewrites digests.json and prints the name of each run
whose record it changed, added or dropped. Such a run changes the documented
output: list each one, and why.

The shipped-config and corpus runs are made here. A config-text run is its
recorded input: its "text" and "argv" in digests.json, and nothing else. To
add one, write those two fields under a new name into digests.json, then run
the recorder and raise the run count in test_digests.py.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from brushdyn import cli

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


def runs() -> dict[str, dict]:
    """Every recorded run by name, without its record: each config-text run
    as digests.json holds it, and every command in both forms on each
    shipped config and on the TestFuzz corpus."""
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    table = {name: {"text": run["text"], "argv": run["argv"]}
             for name, run in recorded.items() if "text" in run}
    for command in COMMANDS:
        out = ["--out", OUT] if command in ("simulate-r2", "sweep") else []
        for form in FORMS:
            for config in ("reference.cfg", "alpha_sweep.cfg"):
                table[" ".join([command, config, *form])] = {
                    "config": f"configs/{config}", "argv": [command, *out, *form]}
            # the seeded malformed configs of TestFuzz, one record per command
            table[" ".join([command, "TestFuzz corpus", *form])] = {
                "corpus": "tests/test_cli.py::TestFuzz", "argv": [command, *out, *form]}
    return table


def main() -> None:
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    table = runs()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for run in table.values():
            run.update(replay(run))
    for name in sorted(recorded.keys() | table.keys()):
        if recorded.get(name) != table.get(name):
            print("added" if name not in recorded else "dropped" if name not in table
                  else "changed", name)
    FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} runs to {FILE}")


if __name__ == "__main__":
    main()
