"""Every run recorded in digests.json prints and writes the same bytes, and
is a run that digests.py makes.

A config-text run is its recorded input, the "text" and "argv" digests.json
holds: to add one, write those two fields under a new name into
digests.json, run ``PYTHONPATH=src python tests/digests.py`` and raise the
count below."""

import json

from digests import FIELDS, FILE, replay, runs


def test_every_recorded_run_gives_its_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    # shipped configs, trajectory draws, edge configs, v_r_regime2 sweeps
    # (reference grid in both forms and without [sim], r2_sweep draws of
    # seed 1 in both forms and of seeds 2-6 in table form), TestFuzz corpus
    # per command, and a v_r_regime1 grid sweep
    assert len(recorded) == 16 + 6 + 3 + 3 + 12 + 30 + 8 + 1
    moved = sorted(name for name, run in recorded.items()
                   if replay(run) != {key: run[key] for key in FIELDS})
    assert not moved, moved


def test_recorded_runs_are_the_runs_the_recorder_makes():
    # so that rewriting digests.json cannot add, drop or change a shipped-config
    # or corpus run unnoticed, nor record any other kind than a config-text run
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    assert runs() == {name: {key: value for key, value in run.items() if key not in FIELDS}
                      for name, run in recorded.items()}


def test_v_r_regime2_sweep_without_sim_records_the_bytes_of_the_one_with_it():
    # no [sim] section enters v_r_regime2, so dropping it changes no byte
    recorded = json.loads(FILE.read_text(encoding="utf-8"))
    with_sim, without = (recorded[f"sweep v_r_regime2 reference.cfg{suffix}"]
                         for suffix in ("", " without [sim]"))
    assert {key: without[key] for key in FIELDS} == {key: with_sim[key] for key in FIELDS}
