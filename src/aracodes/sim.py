"""Binary-erasure-channel Monte Carlo harness.

A sweep builds a degree pair, realizes one finite-length instance, and
runs independent encode/channel/decode trials at each channel erasure
probability.  Everything is deterministic given the config seed: trial
seeds are derived from (seed, point index, trial index), so aggregation
is order-independent and worker counts do not change results.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from . import codec
from .constructions import build_catalog_pair
from .powerseries import InvalidParameterError

WORKER_ENV = "ARACODES_WORKERS"


@dataclass(frozen=True)
class SimConfig:
    family: str
    p_start: float
    p_stop: float
    p_step: float
    k: int
    design_p: float  # the one code of the sweep is designed at this erasure probability
    trials: int = 1000
    seed: int = 0
    d_L: int = 30
    d_R: int = 30
    m_outer: int = 0
    b: Optional[float] = None
    order: int = 256
    allow_unproven: ClassVar[bool] = True  # sweeps accept the observed validity ranges
    workers: int = 0  # 0: take the worker-count override from the environment

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameterError("trials must be at least 1")
        if not (0.0 < self.p_start < 1.0 and 0.0 < self.p_stop < 1.0):
            raise InvalidParameterError("sweep range must lie in (0, 1)")
        if self.p_stop < self.p_start:
            raise InvalidParameterError("p_stop must not lie below p_start")
        if not 0.0 < self.p_step < np.inf:
            raise InvalidParameterError("p_step must be positive and finite")
        if self.seed < 0:
            raise InvalidParameterError("seed must not be negative")
        if not (isinstance(self.design_p, (int, float)) and 0.0 < self.design_p < 1.0):
            raise InvalidParameterError("design_p must lie in (0, 1)")
        if self.workers < 0:
            raise InvalidParameterError("workers must not be negative")

    def p_values(self) -> np.ndarray:
        n = int(np.floor((self.p_stop - self.p_start) / self.p_step + 1e-9)) + 1
        return self.p_start + self.p_step * np.arange(n)


# One entry per value of a sweep row, in row and CSV order: its CSV name,
# its CSV format and the type a CSV field is read back as.  The peel_*
# columns are the rates of peeling alone, before the outer stage.
Column = collections.namedtuple("Column", "name fmt parse")
COLUMNS = (
    Column("p", "{:.6g}", float),
    Column("bit_rate", "{:.8g}", float),
    Column("word_rate", "{:.8g}", float),
    Column("unresolved_mean", "{:.8g}", float),
    Column("outer_rescue_rate", "{:.8g}", float),
    Column("trials", "{}", int),
    Column("peel_bit_rate", "{:.8g}", float),
    Column("peel_word_rate", "{:.8g}", float),
)
_INDEX = {col.name: i for i, col in enumerate(COLUMNS)}
CSV_HEADER = ",".join(col.name for col in COLUMNS)
_CSV_ROW = ",".join(col.fmt for col in COLUMNS) + "\n"


@dataclass
class SimResult:
    config: SimConfig
    table: list[tuple] = field(default_factory=list)  # one row per sweep point, in COLUMNS order
    wall_time: float = 0.0

    def rows(self) -> list[tuple]:
        return list(self.table)

    def column(self, name: str) -> list:
        """One named column of ``COLUMNS``, a value per sweep point."""
        i = _INDEX[name]
        return [row[i] for row in self.table]

    @property
    def trials_run(self) -> list[int]:
        return self.column("trials")

    @property
    def skipped(self) -> list[bool]:
        """Whether each sweep point ran no trials; ``run_sweep`` runs every point."""
        return [t == 0 for t in self.trials_run]

    def word_rate_interval(self, index: int, z: float = 1.96) -> tuple[float, float]:
        """Wilson score 95% interval for one sweep point.

        Unlike the normal approximation it keeps a positive width when a
        point saw no failures, or nothing but failures.
        """
        rate = self.column("word_rate")[index]
        n = max(self.trials_run[index], 1)
        z2n = z * z / n
        centre = (rate + 0.5 * z2n) / (1.0 + z2n)
        half = z * np.sqrt(rate * (1.0 - rate) / n + 0.25 * z2n / n) / (1.0 + z2n)
        return max(0.0, centre - half), min(1.0, centre + half)


def bec_channel(cw: codec.Codeword, p: float, seed=0) -> codec.ReceivedWord:
    """Erase each transmitted position independently with probability p."""
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    erased = rng.random(cw.n) < p
    k = len(cw.u)
    u_vals = np.where(erased[:k], -1, cw.u).astype(np.int8)
    z_vals = np.where(erased[k:], -1, cw.z).astype(np.int8)
    return codec.ReceivedWord(u_vals=u_vals, z_vals=z_vals)


def _trial_batch(
    inst: codec.CodeInstance,
    cfg: SimConfig,
    p: float,
    p_index: int,
    trial_lo: int,
    trial_hi: int,
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
        rcv = bec_channel(cw, p, chan_ss)
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
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidParameterError(f"{WORKER_ENV} must be a positive integer, not {env!r}")
    return workers


def run_sweep(cfg: SimConfig) -> SimResult:
    """Monte Carlo sweep of one code over the configured channel range.

    The code is built once, at ``design_p``, before the first trial, and
    the channel alone varies.  A build error propagates: only ARA families
    have a finite-length realization, so ``codec.instantiate`` rejects any
    other family.
    """
    t_start = time.perf_counter()
    result = SimResult(config=cfg)
    workers = _worker_count(cfg)
    pair = build_catalog_pair(cfg.family, cfg.design_p, b=cfg.b, order=cfg.order, allow_unproven=cfg.allow_unproven)
    inst = codec.instantiate(pair, cfg.k, d_L=cfg.d_L, d_R=cfg.d_R, m_outer=cfg.m_outer, seed=cfg.seed)

    # one pool serves every point; without one the trials run in-process
    use_pool = workers > 1 and cfg.trials >= 2 * workers
    n_parts = workers if use_pool else 1
    bounds = np.linspace(0, cfg.trials, n_parts + 1).astype(int)
    pool = (
        ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        if use_pool
        else contextlib.nullcontext()
    )
    n, info_bits = cfg.trials, cfg.trials * inst.info_len
    with pool:
        run = pool.map if use_pool else map
        for p_index, p in enumerate(cfg.p_values()):
            p = float(p)
            batch = functools.partial(_trial_batch, inst, cfg, p, p_index)
            parts = run(batch, bounds[:-1], bounds[1:])
            word_fails, rescued, unresolved, bit_fails, peel_bit_fails = map(sum, zip(*parts))
            result.table.append((p, bit_fails / info_bits, word_fails / n, unresolved / n, rescued / n, n,
                                 peel_bit_fails / info_bits, (word_fails + rescued) / n))

    result.wall_time = time.perf_counter() - t_start
    return result


def emit_csv(result: SimResult, path: str) -> None:
    """One header row plus one row per sweep point."""
    try:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(_CSV_ROW.format(*row) for row in result.table)
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path!r}: {exc}") from exc


def parse_csv(path: str) -> list[tuple]:
    """Read back rows written by :func:`emit_csv` (numeric round trip).

    Blank lines are skipped; any other row that does not hold one value of
    the right type per column of ``COLUMNS`` raises ``ValueError`` naming
    its line.
    """
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r} in {path!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.strip().split(",")
            try:
                if len(fields) != len(COLUMNS):
                    raise ValueError(f"{len(fields)} fields, expected {len(COLUMNS)}")
                rows.append(tuple(col.parse(value) for col, value in zip(COLUMNS, fields)))
            except ValueError as exc:
                raise ValueError(f"malformed row at line {lineno} of {path!r}: {exc}") from None
    return rows
