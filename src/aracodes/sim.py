"""Binary-erasure-channel Monte Carlo harness.

A sweep builds a degree pair, realizes one finite-length instance, and
runs independent encode/channel/decode trials at each channel erasure
probability.  Everything is deterministic given the config seed: trial
seeds are derived from (seed, point index, trial index), so aggregation
is order-independent and worker counts do not change results.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import codec
from .constructions import build_catalog_pair, catalog_entry
from .powerseries import InvalidParameterError, ValidityError

WORKER_ENV = "ARACODES_WORKERS"


@dataclass(frozen=True)
class SimConfig:
    family: str
    p_start: float
    p_stop: float
    p_step: float
    k: int
    trials: int = 1000
    seed: int = 0
    d_L: int = 30
    d_R: int = 30
    m_outer: int = 0
    alpha: float = 1.0
    design_p: Optional[float] = None  # None: redesign the code at every sweep point
    b: Optional[float] = None
    order: int = 256
    allow_unproven: bool = True
    workers: int = 0  # 0: take the worker-count override from the environment

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameterError("trials must be at least 1")
        if not (0.0 < self.p_start < 1.0 and 0.0 < self.p_stop < 1.0):
            raise InvalidParameterError("sweep range must lie in (0, 1)")
        if self.p_stop < self.p_start:
            raise InvalidParameterError("p_stop must not lie below p_start")
        if self.p_step <= 0.0:
            raise InvalidParameterError("p_step must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidParameterError("alpha must lie in (0, 1]")
        if self.workers < 0:
            raise InvalidParameterError("workers must not be negative")

    def p_values(self) -> np.ndarray:
        n = int(np.floor((self.p_stop - self.p_start) / self.p_step + 1e-9)) + 1
        return self.p_start + self.p_step * np.arange(max(n, 0))


@dataclass
class SimResult:
    config: SimConfig
    p_values: list[float] = field(default_factory=list)
    bit_rates: list[float] = field(default_factory=list)
    word_rates: list[float] = field(default_factory=list)
    unresolved_means: list[float] = field(default_factory=list)
    outer_rescue_rates: list[float] = field(default_factory=list)
    trials_run: list[int] = field(default_factory=list)
    peel_bit_rates: list[float] = field(default_factory=list)  # peeling alone, before the outer stage
    peel_word_rates: list[float] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def skipped(self) -> list[bool]:
        """Whether each sweep point was skipped: an invalid point runs no trials."""
        return [t == 0 for t in self.trials_run]

    def rows(self) -> list[tuple]:
        return list(
            zip(
                self.p_values,
                self.bit_rates,
                self.word_rates,
                self.unresolved_means,
                self.outer_rescue_rates,
                self.trials_run,
                self.peel_bit_rates,
                self.peel_word_rates,
            )
        )

    def word_rate_interval(self, index: int, z: float = 1.96) -> tuple[float, float]:
        """Wilson score 95% interval for one sweep point.

        Unlike the normal approximation it keeps a positive width when a
        point saw no failures, or nothing but failures.
        """
        rate = self.word_rates[index]
        n = max(self.trials_run[index], 1)
        z2n = z * z / n
        centre = (rate + 0.5 * z2n) / (1.0 + z2n)
        half = z * np.sqrt(rate * (1.0 - rate) / n + 0.25 * z2n / n) / (1.0 + z2n)
        return max(0.0, centre - half), min(1.0, centre + half)


def bec_channel(
    cw: codec.Codeword,
    p: float,
    seed=0,
    puncture_mask: Optional[np.ndarray] = None,
) -> codec.ReceivedWord:
    """Erase each transmitted position independently with probability p.

    Positions in ``puncture_mask`` (see :func:`make_puncture_mask`) are
    never transmitted, so they are erased regardless of the channel draw.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    erased = rng.random(cw.n) < p
    if puncture_mask is not None:
        erased |= puncture_mask
    k = len(cw.u)
    u_vals = np.where(erased[:k], -1, cw.u).astype(np.int8)
    z_vals = np.where(erased[k:], -1, cw.z).astype(np.int8)
    return codec.ReceivedWord(u_vals=u_vals, z_vals=z_vals)


def make_puncture_mask(n: int, alpha: float, seed) -> np.ndarray:
    """Deterministic never-transmitted position set of size round((1-alpha) n)."""
    rng = np.random.default_rng(seed)
    n_punct = int(round((1.0 - alpha) * n))
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=n_punct, replace=False)] = True
    return mask


def _trial_batch(
    inst: codec.CodeInstance,
    cfg: SimConfig,
    p: float,
    p_index: int,
    trial_lo: int,
    trial_hi: int,
    puncture_mask: Optional[np.ndarray],
) -> tuple[int, int, float, int, int]:
    """Run trials [lo, hi); returns (word_fails, rescued, unresolved_sum, bit_fails, peel_bit_fails)."""
    word_fails = rescued = bit_fails = peel_bit_fails = 0
    unresolved_sum = 0.0
    for t in range(trial_lo, trial_hi):
        ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(p_index, t))
        rng = np.random.default_rng(ss)
        info = rng.integers(0, 2, inst.info_len, dtype=np.uint8)
        cw = codec.encode(inst, info)
        # channel randomness must not depend on the info word
        chan_ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(p_index, t, 1))
        rcv = bec_channel(cw, p, chan_ss, puncture_mask)
        res = codec.decode(inst, rcv)
        word_fails += not res.success
        rescued += res.rescued_by_outer
        unresolved_sum += res.unresolved_after_peel
        bit_fails += res.info_bit_failures
        peel_bit_fails += res.peel_info_bit_failures
    return word_fails, rescued, unresolved_sum, bit_fails, peel_bit_fails


def _worker_count(cfg: SimConfig) -> int:
    if cfg.workers > 0:
        return cfg.workers
    env = os.environ.get(WORKER_ENV)
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise InvalidParameterError(f"{WORKER_ENV} must be an integer, not {env!r}") from None


def _realize(cfg: SimConfig, p: float) -> tuple[codec.CodeInstance, Optional[np.ndarray]]:
    """The code instance designed at p and its puncture mask (None without puncturing)."""
    pair = build_catalog_pair(cfg.family, p, b=cfg.b, order=cfg.order, allow_unproven=cfg.allow_unproven)
    inst = codec.instantiate(pair, cfg.k, d_L=cfg.d_L, d_R=cfg.d_R, m_outer=cfg.m_outer, seed=cfg.seed)
    return inst, make_puncture_mask(inst.n, cfg.alpha, cfg.seed) if cfg.alpha < 1.0 else None


def run_sweep(cfg: SimConfig) -> SimResult:
    """Monte Carlo sweep over the configured channel range.

    With ``design_p`` set, one code is built at that design point and the
    channel alone varies; otherwise the code is redesigned at every sweep
    point, and points where the construction is invalid are skipped.
    Only ARA families have a finite-length realization; any other family
    is rejected before the first point.
    """
    if catalog_entry(cfg.family).tag != "ARA":
        raise InvalidParameterError(f"simulation covers ARA families only, not {cfg.family!r}")
    t_start = time.time()
    result = SimResult(config=cfg)
    workers = _worker_count(cfg)
    fixed = _realize(cfg, cfg.design_p) if cfg.design_p is not None else None
    columns = (
        result.p_values, result.bit_rates, result.word_rates,
        result.unresolved_means, result.outer_rescue_rates, result.trials_run,
        result.peel_bit_rates, result.peel_word_rates,
    )

    # one pool serves every point; without one the trials run in-process
    use_pool = workers > 1 and cfg.trials >= 2 * workers
    n_parts = workers if use_pool else 1
    bounds = np.linspace(0, cfg.trials, n_parts + 1).astype(int)
    pool = (
        ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        if use_pool
        else contextlib.nullcontext()
    )
    with pool:
        run = pool.map if use_pool else map
        for p_index, p in enumerate(cfg.p_values()):
            p = float(p)
            try:
                inst, mask = fixed or _realize(cfg, p)
            except (ValidityError, codec.ConstructionError):
                row = (p, *[float("nan")] * 4, 0, float("nan"), float("nan"))
            else:
                batch = functools.partial(_trial_batch, inst, cfg, p, p_index, puncture_mask=mask)
                parts = run(batch, bounds[:-1], bounds[1:])
                word_fails, rescued, unresolved, bit_fails, peel_bit_fails = map(sum, zip(*parts))
                n, info_bits = cfg.trials, max(cfg.trials * inst.info_len, 1)
                row = (p, bit_fails / info_bits, word_fails / n, unresolved / n, rescued / n, n,
                       peel_bit_fails / info_bits, (word_fails + rescued) / n)
            for column, value in zip(columns, row):
                column.append(value)

    result.wall_time = time.time() - t_start
    return result


CSV_HEADER = "p,bit_rate,word_rate,unresolved_mean,outer_rescue_rate,trials,peel_bit_rate,peel_word_rate"


def emit_csv(result: SimResult, path: str) -> None:
    """One header row plus one row per sweep point."""
    try:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in result.rows():
                fh.write(
                    f"{row[0]:.6g},{row[1]:.8g},{row[2]:.8g},{row[3]:.8g},{row[4]:.8g},{row[5]},"
                    f"{row[6]:.8g},{row[7]:.8g}\n"
                )
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path!r}: {exc}") from exc


def parse_csv(path: str) -> list[tuple]:
    """Read back rows written by :func:`emit_csv` (numeric round trip).

    Blank lines are skipped; any other row that is not eight numbers raises
    ``ValueError`` naming its line.
    """
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r} in {path!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                p, bit, word, unresolved, rescued, trials, peel_bit, peel_word = line.strip().split(",")
                rows.append((float(p), float(bit), float(word), float(unresolved), float(rescued), int(trials),
                             float(peel_bit), float(peel_word)))
            except ValueError as exc:
                raise ValueError(f"malformed row at line {lineno} of {path!r}: {exc}") from None
    return rows
