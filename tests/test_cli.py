import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from aracodes import cli, sim
from aracodes.cli import main
from aracodes.constructions import CATALOG, build_catalog_pair
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

    @pytest.mark.parametrize("M", [3, 64, 512])
    @pytest.mark.parametrize("family", sorted(CATALOG))
    def test_depth_is_the_requested_order(self, capsys, family, M):
        p = CATALOG[family].representative_p
        code, out, _ = run_cli(capsys, "construct", "--family", family, "--p", str(p), "--M", str(M))
        assert code == 0
        doc = json.loads(out)
        assert doc["M"] == M
        assert len(doc["bit_node"]) == len(doc["check_node"]) == M + 1
        pair, built = DegreePair.from_json(out), build_catalog_pair(family, p, order=M)
        assert (pair.family, pair.p, pair.bit.mean, pair.check.mean) == (
            built.family, built.p, built.bit.mean, built.check.mean
        )

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

    def test_allow_unproven_is_not_offered(self, capsys):
        # verify reports a verdict at any p and gates on no bound
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "bit-regular-ara", "--p", "0.3", "--allow-unproven"])
        assert exc.value.code == 2
        assert "--allow-unproven" in capsys.readouterr().err

    def test_family_verifier(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "check-regular-nsira", "--p", "0.9",
            "--grid", "2048",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"


DEGREE_3 = sorted(name for name, entry in CATALOG.items() if entry.structure != "self-matched")


class TestBRefused:
    @pytest.mark.parametrize("command", ["construct", "de", "verify"])
    @pytest.mark.parametrize("family", DEGREE_3)
    def test_b_refused_for_degree_3_families(self, capsys, family, command):
        p = repr(CATALOG[family].representative_p)
        code, out, err = run_cli(capsys, command, "--family", family, "--p", p, "--b", "0.95", "--M", "16")
        assert code == 2
        assert out == ""
        assert err == f"error: b applies to the self-matched families only, not {family!r}\n"

    def test_b_auto_is_no_b(self, capsys):
        argv = ["construct", "--family", "bit-regular-ara", "--p", "0.2", "--M", "16"]
        assert run_cli(capsys, *argv, "--b", "auto") == run_cli(capsys, *argv)

    @pytest.mark.parametrize("design_p", ["0.2"])
    def test_simulate_refuses_b(self, capsys, tmp_path, design_p):
        out_csv = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--family", "bit-regular-ara", "--p-start", "0.2", "--p-stop", "0.2",
            "--p-step", "0.05", "--k", "64", "--trials", "2", "--b", "0.95", "--out", str(out_csv),
            "--design-p", design_p,
        )
        assert code == 2
        assert out == "" and not out_csv.exists()
        assert err == "error: b applies to the self-matched families only, not 'bit-regular-ara'\n"


class TestParserReuse:
    CALLS = [
        ["construct", "--family", "self-matched-ara", "--p", "0.5", "--M", "64"],
        ["de", "--family", "bit-regular-ara", "--p", "x"],  # argparse rejects the value: exit 2
        ["verify", "--family", "check-regular-nsira", "--p", "0.5", "--grid", "2048"],
        # no --grid: a value left over from the verify call would change the rows
        ["de", "--family", "self-matched-nsira", "--p", "0.5", "--M", "64"],
    ]

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def fresh(argv):
        """The same call in a new interpreter, whose parser serves it alone."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "aracodes.cli", *argv], capture_output=True, text=True,
                             env=env, timeout=120)
        return run.returncode, run.stdout, run.stderr

    def test_one_parser_serves_every_call(self, capsys):
        assert cli._parser() is cli._parser()
        in_sequence = [self.in_process(capsys, argv) for argv in self.CALLS]
        assert in_sequence == [self.fresh(argv) for argv in self.CALLS]
        assert [code for code, _, _ in in_sequence] == [0, 2, 0, 0]
        assert "invalid float value" in in_sequence[1][2]


def test_scipy_integrate_loads_at_first_verify():
    # A fresh interpreter: the import brings in scipy but leaves
    # scipy.integrate to the first Polya integral of a verify command.
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        from aracodes import cli
        state = {"scipy": "scipy" in sys.modules, "integrate_at_import": "scipy.integrate" in sys.modules}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            state["code"] = cli.main(["verify", "--family", "self-matched-ara", "--p", "0.5", "--M", "64"])
        state["verdict"] = json.loads(out.getvalue())["verdict"]
        state["integrate_after_verify"] = "scipy.integrate" in sys.modules
        print(json.dumps(state))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {
        "scipy": True, "integrate_at_import": False, "code": 0, "verdict": "pass",
        "integrate_after_verify": True,
    }


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
        assert all(len(row) == 8 for row in sim.parse_csv(str(out_path)))

    def test_no_outer_flag_removed(self, capsys, tmp_path):
        # one sweep reports peeling alone in its peel_* columns
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--family", "self-matched-ara", "--p-start", "0.35", "--p-stop", "0.4",
                "--p-step", "0.05", "--k", "64", "--design-p", "0.5", "--no-outer",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-outer" in capsys.readouterr().err

    def test_non_ara_family_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "nsira.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--family", "self-matched-nsira",
            "--p-start", "0.35", "--p-stop", "0.4", "--p-step", "0.05",
            "--k", "256", "--trials", "2", "--design-p", "0.5", "--out", str(out_path),
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

    def test_malformed_worker_env_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ARACODES_WORKERS", "abc")
        out_path = tmp_path / "workers.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--family", "self-matched-ara",
            "--p-start", "0.35", "--p-stop", "0.4", "--p-step", "0.05",
            "--k", "256", "--trials", "2", "--design-p", "0.5", "--out", str(out_path),
        )
        assert code == 2
        assert "ARACODES_WORKERS" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--k", "64", "--outer-m", "-1", "--design-p", "0.5"],
            ["--k", "64", "--outer-m", "100", "--design-p", "0.5"],
            ["--k", "0", "--trials", "3", "--design-p", "0.5"],
            ["--k", "64", "--p-start", "0.5", "--p-stop", "0.4", "--design-p", "0.5"],
            ["--k", "64", "--design-p", "0.5", "--b", "0.9"],  # below the minimal b: no valid code
        ],
        ids=["negative-outer", "outer-beyond-k", "k-zero", "reversed-range", "invalid-design"],
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

    def test_design_point_required(self, capsys, tmp_path):
        # a sweep simulates one code, so there is no default design point
        out_path = tmp_path / "undesigned.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--family", "self-matched-ara", "--p-start", "0.4", "--p-stop", "0.45",
                "--p-step", "0.05", "--k", "256", "--trials", "4", "--out", str(out_path),
            ])
        assert exc.value.code == 2
        assert "--design-p" in capsys.readouterr().err
        assert not out_path.exists()
