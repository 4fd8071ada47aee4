"""Every run recorded in digests.json prints and writes the same bytes."""

import json

from digests import FILE, replay

FIELDS = ("exit", "stdout", "stderr", "out")


def test_every_recorded_run_gives_its_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    assert len(recorded) == 16 + 6 + 3  # shipped configs, bench draws, edge configs
    expected = {name: {key: run[key] for key in FIELDS} for name, run in recorded.items()}
    assert {name: replay(run) for name, run in recorded.items()} == expected
