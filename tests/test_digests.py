"""Every run recorded in digests.json prints and writes the same bytes, and
is a run that digests.py makes."""

import json

from digests import FIELDS, FILE, replay, runs


def test_every_recorded_run_gives_its_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    # shipped configs, trajectory draws, edge configs, v_r_regime2 sweeps
    # (reference grid, r2_sweep draws of seed 1 in both forms and of seeds
    # 2-6 in table form), TestFuzz corpus per command
    assert len(recorded) == 16 + 6 + 3 + 2 + 12 + 30 + 8
    moved = sorted(name for name, run in recorded.items()
                   if replay(run) != {key: run[key] for key in FIELDS})
    assert not moved, moved


def test_recorded_runs_are_the_runs_the_recorder_makes():
    # so that rewriting digests.json cannot add, drop or change a run unnoticed
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    assert runs() == {name: {key: value for key, value in run.items() if key not in FIELDS}
                      for name, run in recorded.items()}
