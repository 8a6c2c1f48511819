"""Every shipped preset under every command keeps its exit code, output and report."""
import json

import pytest

from command_matrix import COMMANDS, FIXTURE, PRESETS, run_command, same

MATRIX = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_shipped_preset_and_command():
    shipped = {f"{p.stem}/{c}" for p in PRESETS.glob("*.json") for c in COMMANDS}
    assert set(MATRIX) == shipped, "rerun tests/command_matrix.py"


@pytest.mark.parametrize("key", sorted(MATRIX))
def test_preset_command_matches_fixture(key, tmp_path, monkeypatch):
    monkeypatch.delenv("CAUSALQ_TOL_OVERRIDES", raising=False)
    preset, command = key.split("/")
    got = run_command(preset, command, tmp_path)
    assert same(MATRIX[key], got), (MATRIX[key], got)


@pytest.mark.parametrize("want, got, ok", [
    ({"stdout": "x = 0.5\n"}, {"stdout": "x = 0.50000000000001\n"}, True),
    ({"stdout": "x = 0.5\n"}, {"stdout": "x = 0.5000000001\n"}, False),
    ({"stdout": "r = 1e-17\n"}, {"stdout": "r = 3e-17\n"}, True),
    ({"stdout": "[PASS] a\n"}, {"stdout": "[FAIL] a\n"}, False),
    ({"stdout": "order4 = 1\n"}, {"stdout": "order5 = 1\n"}, False),
    ({"r": {"a": 2.0}}, {"r": {"a": 2.0 + 1e-13}}, True),
    ({"r": {"a": 2.0}}, {"r": {"a": 2.1}}, False),
    ({"r": {"a": 2.0}}, {"r": {"a": 2.0, "b": 1.0}}, False),
    ({"r": {"n": 1}}, {"r": {"n": 1.0}}, False),
    ({"note": "at 0.5"}, {"note": "at 0.50000000000001"}, False),
])
def test_matrix_comparison(want, got, ok):
    assert same(want, got) is ok
