import ctypes
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from aracodes import codec, sim
from aracodes.constructions import self_matched_ara
from aracodes.powerseries import InvalidParameterError
from aracodes.sim import (
    COLUMNS,
    CSV_HEADER,
    WORKER_ENV,
    SimConfig,
    SimResult,
    bec_channel,
    emit_csv,
    parse_csv,
    run_sweep,
)


def small_config(**overrides):
    base = dict(
        family="self-matched-ara",
        p_start=0.30,
        p_stop=0.40,
        p_step=0.05,
        k=256,
        trials=40,
        seed=7,
        d_L=24,
        d_R=24,
        m_outer=6,
        design_p=0.5,
        order=128,
    )
    base.update(overrides)
    return SimConfig(**base)


def table_row(**values):
    """One sweep row in COLUMNS order; columns not named read 0."""
    return tuple(values.get(col.name, col.parse(0)) for col in COLUMNS)


class TestChannel:
    def setup_method(self):
        pair = self_matched_ara(0.5, order=128)
        self.inst = codec.instantiate(pair, k=256, d_L=24, d_R=24, seed=0)
        self.cw = codec.encode(self.inst, np.zeros(self.inst.info_len, dtype=np.uint8))

    def test_near_zero_erasure(self):
        rcv = bec_channel(self.cw, 1e-12, seed=1)
        assert not np.any(rcv.u_vals < 0) and not np.any(rcv.z_vals < 0)

    def test_empirical_fraction(self):
        pair = self_matched_ara(0.5, order=64)
        inst = codec.instantiate(pair, k=500_000, d_L=30, d_R=30, seed=1)
        cw = codec.Codeword(
            u=np.zeros(inst.k, dtype=np.uint8), z=np.zeros(inst.n_checks, dtype=np.uint8)
        )
        rcv = bec_channel(cw, 0.5, seed=2)
        frac = (np.count_nonzero(rcv.u_vals < 0) + np.count_nonzero(rcv.z_vals < 0)) / cw.n
        assert frac == pytest.approx(0.5, abs=0.002)

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            bec_channel(self.cw, 1.5, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            small_config(trials=0)
        with pytest.raises(InvalidParameterError):
            small_config(p_start=0.0)
        for p_step in (0.0, -0.05, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="p_step"):
                small_config(p_step=p_step)
        with pytest.raises(InvalidParameterError, match="seed"):
            small_config(seed=-1)

    def test_reversed_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="p_stop"):
            small_config(p_start=0.5, p_stop=0.4)
        assert np.allclose(small_config(p_start=0.4, p_stop=0.4).p_values(), [0.4])

    @pytest.mark.parametrize("design_p", [0.5])
    @pytest.mark.parametrize("k, m_outer", [(0, 0), (64, -1), (64, 100)])
    def test_empty_code_fails_loudly(self, design_p, k, m_outer):
        # the build fails before the first point, so no row is written
        with pytest.raises(InvalidParameterError):
            run_sweep(small_config(k=k, m_outer=m_outer, design_p=design_p, trials=3))

    def test_p_values(self):
        cfg = small_config()
        assert np.allclose(cfg.p_values(), [0.30, 0.35, 0.40])

    @pytest.mark.parametrize("design_p", [None, 0.0, 1.0, 1.5])
    def test_design_point_required_in_range(self, design_p):
        with pytest.raises(InvalidParameterError, match="design_p"):
            small_config(design_p=design_p)

    def test_sweeps_accept_unproven_ranges(self):
        # a class constant, not a field: no caller sets it
        assert SimConfig.allow_unproven is True
        assert "allow_unproven" not in {f.name for f in dataclasses.fields(SimConfig)}
        with pytest.raises(TypeError):
            small_config(allow_unproven=False)

    def test_negative_workers_rejected(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            small_config(workers=-1)

    def test_malformed_worker_env_fails_loudly(self, monkeypatch):
        # rejected before any point is built or any process is started
        for value in ("abc", "0", "-3"):
            monkeypatch.setenv(WORKER_ENV, value)
            with pytest.raises(InvalidParameterError, match=WORKER_ENV):
                run_sweep(small_config(trials=3))


class TestSweep:
    def test_deterministic(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        for name in ("word_rate", "bit_rate", "unresolved_mean"):
            assert a.column(name) == b.column(name)

    def test_monotone_word_rate(self):
        cfg = small_config(
            p_start=0.30, p_stop=0.55, p_step=0.05, trials=60, k=512, m_outer=8
        )
        res = run_sweep(cfg)
        rates = np.array(res.column("word_rate"))
        sigma = np.sqrt(0.25 / cfg.trials)
        assert np.all(np.diff(rates) >= -2 * sigma)

    def test_outer_dominance_on_matched_seeds(self):
        res = run_sweep(small_config(p_start=0.42, p_stop=0.46, p_step=0.02, trials=50, k=512))
        for w, wo in zip(res.column("word_rate"), res.column("peel_word_rate")):
            assert w <= wo + 1e-12

    def test_peel_word_rate_counts_failures_and_rescues(self):
        cfg = small_config(p_start=0.36, p_stop=0.46, p_step=0.05, trials=30, k=512)
        res = run_sweep(cfg)
        counts = lambda rates: [rate * cfg.trials for rate in rates]
        rescue_rates = res.column("outer_rescue_rate")
        for peel, fails, rescues in zip(
            counts(res.column("peel_word_rate")), counts(res.column("word_rate")), counts(rescue_rates)
        ):
            assert all(abs(count - round(count)) < 1e-9 for count in (peel, fails, rescues))
            assert round(peel) == round(fails) + round(rescues)
        assert sum(rescue_rates) > 0.0  # the two curves differ here
        for peel, final, rescues in zip(res.column("peel_bit_rate"), res.column("bit_rate"), rescue_rates):
            assert peel > final if rescues else peel >= final  # a rescued word had lost info bits

    def test_peel_columns_equal_final_without_outer_code(self):
        res = run_sweep(small_config(p_start=0.36, p_stop=0.46, p_step=0.05, trials=20, m_outer=0))
        assert res.column("peel_bit_rate") == res.column("bit_rate")
        assert res.column("peel_word_rate") == res.column("word_rate")
        assert res.column("outer_rescue_rate") == [0.0] * 3 and res.column("word_rate")[-1] > 0.0

    def test_super_threshold_point_fails(self):
        res = run_sweep(small_config(p_start=0.58, p_stop=0.58, p_step=0.01, trials=30, k=512))
        assert res.column("word_rate")[0] > 0.9

    def test_skipped_is_read_off_trials_run(self):
        res = SimResult(config=small_config(), table=[table_row(trials=t) for t in (5, 0, 3)])
        assert res.trials_run == [5, 0, 3]
        assert res.skipped == [False, True, False]
        with pytest.raises(AttributeError):
            res.skipped = [True]

    def test_block_length_improvement(self):
        base = dict(p_start=0.42, p_stop=0.42, p_step=0.01, trials=60, m_outer=0, d_L=24, d_R=24)
        small = run_sweep(small_config(k=256, **base))
        large = run_sweep(small_config(k=2048, **base))
        sigma = 2.0 * np.sqrt(0.25 / 60)
        assert large.column("word_rate")[0] <= small.column("word_rate")[0] + sigma

    def test_rows_independent_of_info_word(self, monkeypatch):
        # on the BEC a decoder that never guesses succeeds or fails on the
        # erasure pattern alone, so sending the all-zero word changes no row
        cfg = small_config(trials=10)
        random_words = run_sweep(cfg).rows()
        assert any(row[4] > 0.0 for row in random_words)  # the outer code rescues words here
        assert all(row[7] > 0.0 and row[5] == 10 for row in random_words)
        encode = codec.encode
        monkeypatch.setattr(codec, "encode", lambda inst, info: encode(inst, np.zeros_like(info)))
        assert run_sweep(cfg).rows() == random_words

    def test_wall_time_survives_a_clock_step(self, monkeypatch):
        # a wall clock stepped back during the sweep cannot make its duration negative
        ticks = itertools.count(0.0, -1000.0)
        monkeypatch.setattr(time, "time", lambda: next(ticks))
        assert run_sweep(small_config(trials=4, workers=1)).wall_time >= 0.0

    def test_worker_pool_matches_serial(self):
        # two points, so the one pool of the sweep serves more than one
        cfg = dict(p_start=0.40, p_stop=0.44, p_step=0.04, trials=24)
        serial = run_sweep(small_config(**cfg))
        parallel = run_sweep(small_config(workers=2, **cfg))
        assert len(serial.rows()) == 2
        assert serial.rows() == parallel.rows()


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def run_probe(probe: str) -> dict:
    """Run a script in a fresh interpreter on this checkout; returns its last line as JSON."""
    src = str(Path(sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(probe)], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


class TestAllocator:
    @pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt")
    def test_warm_large_sweep_takes_few_page_faults(self):
        # the benchmark's k = 65536 configuration; the first sweep warms the heap
        resource = pytest.importorskip("resource")
        cfg = SimConfig(family="self-matched-ara", design_p=0.5, p_start=0.46, p_stop=0.46, p_step=1.0,
                        k=65536, trials=8, seed=5, m_outer=13, workers=1)
        run_sweep(cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_sweep(cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 50 * cfg.trials, faults

    def test_rows_unchanged_without_mallopt(self, monkeypatch):
        cfg = small_config(trials=10)
        rows = run_sweep(cfg).rows()
        looked_up = []

        def libc_without_mallopt(*args, **kwargs):
            looked_up.append(args)
            return object()

        monkeypatch.setattr(ctypes, "CDLL", libc_without_mallopt)
        sim._raise_malloc_thresholds.cache_clear()
        try:
            assert run_sweep(cfg).rows() == rows
        finally:
            sim._raise_malloc_thresholds.cache_clear()
        assert looked_up

    def test_import_never_calls_mallopt(self):
        # a spy C library records every mallopt call: none at import, two at
        # the first sweep set-up of the process and none after it
        state = run_probe("""
            import ctypes, json
            import numpy  # loaded before the spy replaces ctypes.CDLL
            calls = []

            class Mallopt:
                def __call__(self, param, value):
                    calls.append([param, value])
                    return 1

            class Libc:
                def __init__(self, *args, **kwargs):
                    self.mallopt = Mallopt()

            ctypes.CDLL = Libc
            import aracodes, aracodes.cli, aracodes.codec, aracodes.sim
            at_import = list(calls)
            aracodes.sim._raise_malloc_thresholds()
            aracodes.sim._raise_malloc_thresholds()
            print(json.dumps({"at_import": at_import, "after": calls}))
        """)
        assert state == {"at_import": [], "after": [[-1, 32 << 20], [-3, 32 << 20]]}

    def test_import_leaves_out_the_pool_modules(self):
        # the process pool's modules load only when a sweep starts a pool
        state = run_probe("""
            import json, sys
            import aracodes.cli
            print(json.dumps({m: m in sys.modules for m in ("multiprocessing", "concurrent.futures")}))
        """)
        assert state == {"multiprocessing": False, "concurrent.futures": False}


class TestCsv:
    def test_round_trip(self, tmp_path):
        res = run_sweep(small_config(trials=8))
        path = tmp_path / "sweep.csv"
        emit_csv(res, str(path))
        rows = parse_csv(str(path))
        assert len(rows) == 3
        for row, expect in zip(rows, res.rows()):
            assert row == pytest.approx(expect)
            assert row[5] == expect[5]
            assert [type(value) for value in row] == [col.parse for col in COLUMNS]

    def test_rewrite_is_byte_identical(self, tmp_path):
        # the formats of COLUMNS are fixed points of their parse types
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        emit_csv(run_sweep(small_config(trials=8, m_outer=6)), str(first))
        emit_csv(SimResult(config=small_config(), table=parse_csv(str(first))), str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_header_and_row_follow_the_column_table(self, tmp_path):
        assert CSV_HEADER.split(",") == [col.name for col in COLUMNS]
        res = run_sweep(small_config(trials=4))
        assert all(len(row) == len(COLUMNS) for row in res.rows())
        assert res.column("trials") == res.trials_run == [4] * 3
        assert res.column("p") == [row[0] for row in res.rows()]

    def test_malformed_row_fails_loudly(self, tmp_path):
        good = "0.3,0.001,0.01,0.5,0.02,40,0.002,0.03\n"
        path = tmp_path / "rows.csv"
        path.write_text(CSV_HEADER + "\n" + good + "\n" + good)
        assert len(parse_csv(str(path))) == 2  # blank lines are skipped
        path.write_text(CSV_HEADER + "\n" + good + "0.35,0.002,0.02\n" + good)
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(str(path))
        path.write_text(CSV_HEADER + "\n" + good + "0.35,x,0.02,0.5,0.02,40,0.002,0.03\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(str(path))
        path.write_text(CSV_HEADER + "\n" + good + "0.35,0.002,0.02,0.5,0.02,40\n")  # no peel columns
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(str(path))
        path.write_text(CSV_HEADER + "\n" + good + "0.35,0.002,0.02,0.5,0.02,40,0.002,0.03,0.1\n")
        with pytest.raises(ValueError, match="line 3.*9 fields, expected 8"):
            parse_csv(str(path))
        path.write_text(CSV_HEADER + "\n" + good + "0.35,0.002,0.02,0.5,0.02,40.5,0.002,0.03\n")
        with pytest.raises(ValueError, match="line 3"):  # trials is an integer column
            parse_csv(str(path))
        path.write_text(CSV_HEADER.replace("word_rate", "wer") + "\n" + good)
        with pytest.raises(ValueError, match="unexpected header"):
            parse_csv(str(path))

    def test_word_rate_interval(self):
        res = run_sweep(small_config(trials=30))
        lo, hi = res.word_rate_interval(0)
        assert 0.0 <= lo <= res.column("word_rate")[0] <= hi <= 1.0

    def test_word_rate_interval_at_extremes(self):
        res = SimResult(config=small_config(), table=[table_row(word_rate=w, trials=30) for w in (0.0, 1.0)])
        lo, hi = res.word_rate_interval(0)
        assert lo == 0.0 and hi > 0.05
        lo, hi = res.word_rate_interval(1)
        assert lo < 0.95 and hi == 1.0

    def test_non_ara_family_rejected(self):
        with pytest.raises(codec.ConstructionError, match="ARA"):
            run_sweep(small_config(family="self-matched-nsira"))

    def test_header_only_for_empty_sweep(self, tmp_path):
        cfg = small_config()
        res = run_sweep(small_config(trials=1, p_start=0.4, p_stop=0.4, p_step=0.1))
        path = tmp_path / "one.csv"
        emit_csv(res, str(path))
        lines = open(path).read().strip().split("\n")
        assert len(lines) == 2

    def test_write_failure_context(self):
        res = run_sweep(small_config(trials=2))
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(res, "/no/such/dir/out.csv")
