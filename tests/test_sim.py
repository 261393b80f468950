import numpy as np
import pytest

from aracodes import codec
from aracodes.constructions import self_matched_ara
from aracodes.powerseries import InvalidParameterError
from aracodes.sim import (
    CSV_HEADER,
    WORKER_ENV,
    SimConfig,
    SimResult,
    bec_channel,
    emit_csv,
    make_puncture_mask,
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

    def test_puncturing_effective_rate(self):
        cw = codec.Codeword(
            u=np.zeros(500_000, dtype=np.uint8), z=np.zeros(500_000, dtype=np.uint8)
        )
        rcv = bec_channel(cw, 0.4, seed=3, puncture_mask=make_puncture_mask(cw.n, 0.5, 3))
        frac = (np.count_nonzero(rcv.u_vals < 0) + np.count_nonzero(rcv.z_vals < 0)) / cw.n
        assert frac == pytest.approx(1.0 - 0.5 * (1.0 - 0.4), abs=0.002)

    def test_puncture_mask_deterministic(self):
        a = make_puncture_mask(1000, 0.7, seed=4)
        b = make_puncture_mask(1000, 0.7, seed=4)
        assert np.array_equal(a, b)
        assert np.count_nonzero(a) == 300

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            bec_channel(self.cw, 1.5, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            small_config(trials=0)
        with pytest.raises(InvalidParameterError):
            small_config(p_start=0.0)
        with pytest.raises(InvalidParameterError):
            small_config(alpha=1.5)

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

    def test_negative_workers_rejected(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            small_config(workers=-1)

    def test_malformed_worker_env_fails_loudly(self, monkeypatch):
        # rejected before any point is built or any process is started
        monkeypatch.setenv(WORKER_ENV, "abc")
        with pytest.raises(InvalidParameterError, match=WORKER_ENV):
            run_sweep(small_config(trials=3))


class TestSweep:
    def test_deterministic(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        assert a.word_rates == b.word_rates
        assert a.bit_rates == b.bit_rates
        assert a.unresolved_means == b.unresolved_means

    def test_monotone_word_rate(self):
        cfg = small_config(
            p_start=0.30, p_stop=0.55, p_step=0.05, trials=60, k=512, m_outer=8
        )
        res = run_sweep(cfg)
        rates = np.array(res.word_rates)
        sigma = np.sqrt(0.25 / cfg.trials)
        assert np.all(np.diff(rates) >= -2 * sigma)

    def test_outer_dominance_on_matched_seeds(self):
        res = run_sweep(small_config(p_start=0.42, p_stop=0.46, p_step=0.02, trials=50, k=512))
        for w, wo in zip(res.word_rates, res.peel_word_rates):
            assert w <= wo + 1e-12

    def test_peel_word_rate_counts_failures_and_rescues(self):
        cfg = small_config(p_start=0.36, p_stop=0.46, p_step=0.05, trials=30, k=512)
        res = run_sweep(cfg)
        counts = lambda rates: [rate * cfg.trials for rate in rates]
        for peel, fails, rescues in zip(
            counts(res.peel_word_rates), counts(res.word_rates), counts(res.outer_rescue_rates)
        ):
            assert all(abs(count - round(count)) < 1e-9 for count in (peel, fails, rescues))
            assert round(peel) == round(fails) + round(rescues)
        assert sum(res.outer_rescue_rates) > 0.0  # the two curves differ here
        for peel, final, rescues in zip(res.peel_bit_rates, res.bit_rates, res.outer_rescue_rates):
            assert peel > final if rescues else peel >= final  # a rescued word had lost info bits

    def test_peel_columns_equal_final_without_outer_code(self):
        res = run_sweep(small_config(p_start=0.36, p_stop=0.46, p_step=0.05, trials=20, m_outer=0))
        assert res.peel_bit_rates == res.bit_rates
        assert res.peel_word_rates == res.word_rates
        assert res.outer_rescue_rates == [0.0] * 3 and res.word_rates[-1] > 0.0

    def test_super_threshold_point_fails(self):
        res = run_sweep(small_config(p_start=0.58, p_stop=0.58, p_step=0.01, trials=30, k=512))
        assert res.word_rates[0] > 0.9

    def test_skipped_is_read_off_trials_run(self):
        res = SimResult(config=small_config(), trials_run=[5, 0, 3])
        assert res.skipped == [False, True, False]
        with pytest.raises(AttributeError):
            res.skipped = [True]

    def test_block_length_improvement(self):
        base = dict(p_start=0.42, p_stop=0.42, p_step=0.01, trials=60, m_outer=0, d_L=24, d_R=24)
        small = run_sweep(small_config(k=256, **base))
        large = run_sweep(small_config(k=2048, **base))
        sigma = 2.0 * np.sqrt(0.25 / 60)
        assert large.word_rates[0] <= small.word_rates[0] + sigma

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

    def test_punctured_sweep_shifts_threshold(self):
        # rate-1/2 design punctured to rate 0.7: effective erasure is
        # 1 - alpha (1-p), so decoding flips near p = 1 - 0.5/alpha = 0.3
        alpha = 5.0 / 7.0
        cfg = small_config(
            p_start=0.15, p_stop=0.40, p_step=0.25, trials=40, k=2048, alpha=alpha, m_outer=10
        )
        res = run_sweep(cfg)
        assert res.word_rates[0] < 0.2
        assert res.word_rates[1] > 0.8

    def test_worker_pool_matches_serial(self):
        # two points, so the one pool of the sweep serves more than one
        cfg = dict(p_start=0.40, p_stop=0.44, p_step=0.04, trials=24)
        serial = run_sweep(small_config(**cfg))
        parallel = run_sweep(small_config(workers=2, **cfg))
        assert len(serial.word_rates) == 2
        assert serial.word_rates == parallel.word_rates
        assert serial.bit_rates == parallel.bit_rates
        assert serial.outer_rescue_rates == parallel.outer_rescue_rates
        assert serial.rows() == parallel.rows()


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

    def test_word_rate_interval(self):
        res = run_sweep(small_config(trials=30))
        lo, hi = res.word_rate_interval(0)
        assert 0.0 <= lo <= res.word_rates[0] <= hi <= 1.0

    def test_word_rate_interval_at_extremes(self):
        res = SimResult(config=small_config(), word_rates=[0.0, 1.0], trials_run=[30, 30])
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
