import json

import pytest

from aracodes import cli
from aracodes.cli import main
from aracodes.powerseries import DegenerateInputError, DegreePair, InvalidInputError, NumericDomainError


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_emits_pair_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--family", "self-matched-ara", "--p", "0.5", "--b", "auto",
            "--M", "64",
        )
        assert code == 0
        pair = DegreePair.from_json(out)
        assert pair.family == "ARA"
        assert pair.b == pytest.approx(0.93037, abs=1e-4)

    def test_invalid_parameters_exit_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--family", "self-matched-ara", "--p", "0.5", "--b", "0.8"
        )
        assert code == 2
        assert "error" in err

    def test_unparsable_b_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--family", "self-matched-ara", "--p", "0.5", "--b", "foo"])
        assert exc.value.code == 2
        assert "--b" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, order",
        [("bit-regular-ara", "2"), ("self-matched-ara", "0"), ("self-matched-ara", "1")],
    )
    def test_order_below_three_exits_2(self, capsys, family, order):
        code, out, err = run_cli(capsys, "construct", "--family", family, "--p", "0.2", "--M", order)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("error", [InvalidInputError, DegenerateInputError, NumericDomainError])
    def test_numeric_errors_reported(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "build_catalog_pair", fail)
        code, _, err = run_cli(capsys, "construct", "--family", "self-matched-ara", "--p", "0.5")
        assert code == 2
        assert err == "error: boom\n"


class TestDe:
    def test_residual_grid_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "de", "--family", "self-matched-ara", "--p", "0.5", "--M", "128",
            "--grid", "50",
        )
        assert code == 0
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        assert len(lines) == 51
        assert summary["max_abs_residual"] < 1e-9
        assert summary["design_rate"] == pytest.approx(0.5, abs=1e-9)
        assert summary["p_star"] > 0.45
        x, r = lines[0].split(",")
        assert float(x) > 0.0

    def test_grid_below_one_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "de", "--family", "self-matched-ara", "--p", "0.5", "--M", "64", "--grid", "0"
        )
        assert code == 2
        assert out == ""
        assert "--grid" in err


class TestVerify:
    def test_self_matched_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "self-matched-ara", "--p", "0.5", "--grid", "2048"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form_condition"] is True
        assert doc["verdict"] == "pass"
        assert doc["first_200_coeff_min"] >= -1e-9

    def test_family_verifier(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "check-regular-nsira", "--p", "0.9",
            "--grid", "2048",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"


class TestSimulate:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--family", "self-matched-ara",
            "--p-start", "0.35", "--p-stop", "0.4", "--p-step", "0.05",
            "--k", "256", "--trials", "10", "--seed", "3", "--design-p", "0.5",
            "--outer-m", "4", "--d-l", "24", "--d-r", "24", "--M", "96",
            "--out", str(out_path),
        )
        assert code == 0
        lines = open(out_path).read().strip().split("\n")
        assert lines[0].startswith("p,bit_rate")
        assert len(lines) == 3

    def test_non_ara_family_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "nsira.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--family", "self-matched-nsira",
            "--p-start", "0.35", "--p-stop", "0.4", "--p-step", "0.05",
            "--k", "256", "--trials", "2", "--out", str(out_path),
        )
        assert code == 2
        assert "ARA" in err
        assert not out_path.exists()

    def test_bad_config_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--family", "self-matched-ara",
            "--p-start", "0.0", "--p-stop", "0.4", "--p-step", "0.05",
            "--k", "64", "--trials", "2", "--design-p", "0.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--k", "64", "--outer-m", "-1", "--design-p", "0.5"],
            ["--k", "64", "--outer-m", "100"],
            ["--k", "0", "--trials", "3"],
            ["--k", "64", "--p-start", "0.5", "--p-stop", "0.4"],
        ],
        ids=["negative-outer", "outer-beyond-k", "k-zero", "reversed-range"],
    )
    def test_empty_configurations_exit_2(self, capsys, tmp_path, extra):
        out_path = tmp_path / "empty.csv"
        args = ["--p-start", "0.3", "--p-stop", "0.4", "--p-step", "0.05", "--trials", "2"]
        code, _, err = run_cli(
            capsys, "simulate", "--family", "self-matched-ara", *args, *extra, "--out", str(out_path)
        )
        assert code == 2
        assert err.startswith("error:")
        assert not out_path.exists()
