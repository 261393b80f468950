"""Smoke tests: the experiment scripts run against the current library."""

import importlib.util
from pathlib import Path

import pytest

from aracodes.constructions import CATALOG
from aracodes.sim import parse_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_complexity_table_covers_catalog(capsys):
    load_script("complexity_table").main()
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + len(CATALOG)
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert set(rows) == set(CATALOG)
    for name, row in rows.items():
        p = float(row[1])
        assert p == CATALOG[name].representative_p
        assert float(row[2]) == pytest.approx(1.0 - p, abs=1e-3)
        assert float(row[-1]) < 1e-9


def test_threshold_vs_truncation_rows(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["threshold_vs_truncation.py", "--depths", "6", "12"])
    load_script("threshold_vs_truncation").main()
    lines = capsys.readouterr().out.strip().split("\n")
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [6, 12]
    for row in rows:
        filled, rate, chopped = map(float, row[1:])
        assert 0.0 < chopped < 0.5 < filled  # around the design p = 0.5
        assert 0.0 < rate < 0.5  # degree-1 fill trades rate for threshold
    assert float(rows[0][3]) < float(rows[1][3])  # plain chop climbs back with depth


def test_waterfall_sweep_writes_one_csv_per_k(tmp_path, monkeypatch, capsys):
    prefix = tmp_path / "w"
    monkeypatch.setattr(
        "sys.argv", ["waterfall_sweep.py", "--trials", "1", "--out-prefix", str(prefix)]
    )
    load_script("waterfall_sweep").main()
    paths = sorted(tmp_path.glob("w_k*.csv"))
    assert [p.name for p in paths] == ["w_k65536.csv", "w_k8192.csv"]
    for path in paths:
        rows = parse_csv(str(path))
        assert len(rows) == 10
        assert all(len(row) == 8 and row[5] == 1 for row in rows)
