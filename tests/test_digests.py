"""Every run recorded in digests.json prints and writes the same bytes."""

import json

from digests import FIELDS, FILE, replay


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
