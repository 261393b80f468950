"""The three kinds of work a benchmark run times, with their output checks.

Each section has an untimed ``check`` round that validates every output
and counts attempted and failed operations, a timed ``rep`` that repeats
exactly the same work and must reproduce the checked outputs, and
``layer_metrics`` that turns the spans of traced reps into per-layer
figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from aracodes import cli, codec, sim
from aracodes.powerseries import DegreePair

import workloads


class OutputMismatch(RuntimeError):
    """A timed repetition did not reproduce the outputs of the checked round."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # failures that make the output wrong
    verdict_mismatches: int = 0
    digest: str = ""

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1)]


def _best_per_unit(reps: list[list[float]]) -> list[float]:
    """Fastest time of each unit over the reps.

    On a host shared with other tenants a unit's slower times are slowed
    by the neighbours, so the sum of per-unit bests is the steadiest
    estimate of a pass on the machine itself.
    """
    return [min(times) for times in zip(*reps)]


class SpanView:
    """Read-only view of the spans of one traced rep."""

    def __init__(self, tracer, lo: int, hi: int, child_ms: list[float]):
        self.spans = tracer.spans
        self.lo, self.hi = lo, hi
        self.child_ms = child_ms

    def indices(self, name: str) -> list[int]:
        return [i for i in range(self.lo, self.hi) if self.spans[i].name == name]

    def outermost(self, name: str) -> list[int]:
        """Spans of ``name`` that are not nested in another span of the same name."""
        out = []
        for i in self.indices(name):
            j = self.spans[i].parent
            while j >= 0 and self.spans[j].name != name:
                j = self.spans[j].parent
            if j < 0:
                out.append(i)
        return out

    def ms(self, name: str) -> float:
        return sum(self.spans[i].ms for i in self.outermost(name))

    def self_ms(self, name: str) -> float:
        return sum(self.spans[i].ms - self.child_ms[i] for i in self.indices(name))

    def calls(self, name: str) -> int:
        return len(self.indices(name))


# ---------------------------------------------------------------------------
# design commands
# ---------------------------------------------------------------------------

class CatalogSection:
    """construct, de and verify over the catalog, through ``cli.main`` in process."""

    ops = {"construct_s": "s", "de_s": "s", "verify_s": "s"}

    def __init__(self):
        self.commands = workloads.catalog_commands()
        self.argv = {(cmd, fam): argv for cmd, runs in self.commands.items() for fam, argv in runs}
        self.units = list(self.argv)
        self.reference: dict = {}

    @staticmethod
    def _call(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(self) -> Outcome:
        out = Outcome()
        for unit, argv in self.argv.items():
            out.attempted += 1
            try:
                rc, text = self._call(argv)
                self.reference[unit] = text
                problem = f"exit code {rc}" if rc else self._validate(*unit, text)
            except Exception as exc:  # an exception or malformed output is a failed operation
                problem = f"{type(exc).__name__}: {exc}"
            if problem == "verdict":
                out.failed += 1
                out.verdict_mismatches += 1
            elif problem:
                out.fail(f"{unit[0]} {unit[1]}: {problem}")
        out.digest = _digest(sorted(self.reference.items()))
        return out

    @staticmethod
    def _validate(cmd: str, fam: str, text: str) -> str:
        p = workloads.REPRESENTATIVE_P[fam]
        if cmd == "construct":
            pair = DegreePair.from_json(text)
            tag = workloads.FAMILY_TAG[fam.rsplit("-", 1)[-1]]
            coeffs = np.concatenate([pair.bit.node.coeffs, pair.check.node.coeffs])
            if pair.family != tag or pair.p != p:
                return "pair metadata differs from the request"
            if not np.all(np.isfinite(coeffs)) or coeffs.min() < -1e-9:
                return "negative or non-finite node coefficients"
            return ""
        lines = text.splitlines()
        summary = json.loads(lines[-1])
        if summary["family"] != fam or summary["p"] != p:
            return "summary metadata differs from the request"
        if cmd == "de":
            if len(lines) != 1001:
                return f"{len(lines) - 1} residual rows, expected 1000"
            if not summary["max_abs_residual"] < 1e-9:
                return f"residual {summary['max_abs_residual']:.2e}"
            if abs(summary["design_rate"] - (1.0 - p)) > 1e-9:
                return f"design rate {summary['design_rate']} for p={p}"
            return ""
        return "verdict" if summary["verdict"] != workloads.EXPECTED_VERDICT[fam] else ""

    def rep(self) -> list[float]:
        """Seconds per (command, family) call, in ``units`` order."""
        times = []
        for unit in self.units:
            t0 = time.perf_counter()
            _rc, text = self._call(self.argv[unit])
            times.append(time.perf_counter() - t0)
            if text != self.reference.get(unit):
                raise OutputMismatch(f"{unit[0]} {unit[1]} output changed between repetitions")
        return times

    def summarize(self, reps: list[list[float]]) -> dict[str, float]:
        best = _best_per_unit(reps)
        return {f"{cmd}_s": sum(t for (c, _), t in zip(self.units, best) if c == cmd) for cmd in self.commands}

    def layer_metrics(self, views: list[SpanView], outcome: Outcome) -> dict[str, tuple[float, str]]:
        """Per catalog pass: inclusive ms and call counts of the design layers."""
        metrics = {"cli.main.self_ms": (_median([v.self_ms("cli.main") for v in views]), "ms")}
        for span in ("constructions.build_catalog_pair", "powerseries.PowerSeries.__call__",
                     "powerseries.reciprocal", "tilting.threshold_search", "tilting.de_residual",
                     "tilting.truncate_pair", "tilting.stability", "nonneg.polya_verify",
                     "nonneg.first_coefficients_min"):
            metrics[f"{span}.ms"] = (_median([v.ms(span) for v in views]), "ms")
        for span in ("powerseries.PowerSeries.__call__", "tilting.de_residual", "nonneg.polya_verify"):
            metrics[f"{span}.calls"] = (_exact([v.calls(span) for v in views], span), "count")
        metrics["nonneg.verdict_mismatches"] = (outcome.verdict_mismatches, "count")
        return metrics


def _exact(values: list, name: str):
    """A count that every traced rep must reproduce exactly."""
    if any(v != values[0] for v in values):
        raise OutputMismatch(f"{name} differs between identical repetitions: {values}")
    return values[0]


# ---------------------------------------------------------------------------
# Monte Carlo sweep
# ---------------------------------------------------------------------------

class SweepSection:
    """``sim.run_sweep`` over the spec's instances; every rep repeats the same trials."""

    ops = {"trials_per_s": "1/s"}

    def __init__(self, spec: workloads.SweepSpec):
        self.spec = spec
        self.cfgs = spec.configs()
        self.trials = spec.trials * len(spec.points) * spec.instances
        self.reference = None

    def check(self) -> Outcome:
        """One rep with every decode compared against the transmitted state."""
        out = Outcome(attempted=self.trials)
        encode, decode = codec.encode, codec.decode
        sent = []

        def checked_encode(*args, **kwargs):
            cw = encode(*args, **kwargs)
            sent.append(cw)
            return cw

        def checked_decode(inst, rcv, *args, **kwargs):
            res = decode(inst, rcv, *args, **kwargs)
            v = (np.cumsum(sent[-1].u) & 1).astype(np.int8)
            known = res.v_vals >= 0
            if not np.array_equal(res.v_vals[known], v[known]) or (res.success and not known.all()):
                out.fail(f"k={inst.k}: decoded state differs from the transmitted one")
            return res

        codec.encode, codec.decode = checked_encode, checked_decode
        try:
            results = [sim.run_sweep(cfg) for cfg in self.cfgs]
        except Exception as exc:
            out.failed = out.attempted
            out.errors.append(f"run_sweep: {type(exc).__name__}: {exc}")
            return out
        finally:
            codec.encode, codec.decode = encode, decode
        ran = sum(sum(r.trials_run) for r in results)
        if len(sent) != self.trials or ran != self.trials or any(any(r.skipped) for r in results):
            out.errors.append(f"sweeps ran {len(sent)} trials, expected {self.trials}")
        self.reference = _digest([r.rows() for r in results])
        out.digest = self.reference
        return out

    def rep(self) -> list[float]:
        """Seconds per instance sweep."""
        times, results = [], []
        for cfg in self.cfgs:
            t0 = time.perf_counter()
            results.append(sim.run_sweep(cfg))
            times.append(time.perf_counter() - t0)
        if _digest([r.rows() for r in results]) != self.reference:
            raise OutputMismatch("sweep rows changed between repetitions")
        return times

    def summarize(self, reps: list[list[float]]) -> dict[str, float]:
        return {"trials_per_s": self.trials / sum(_best_per_unit(reps))}


    def _trials(self, view: SpanView) -> list[dict]:
        """Per-trial stage figures, in sweep order (each encode starts a trial)."""
        spans, child_ms = view.spans, view.child_ms
        trials: list[dict] = []
        for i in range(view.lo, view.hi):
            s = spans[i]
            if s.name == "codec.encode":
                trials.append({"encode": s.ms})
            elif s.name == "sim.bec_channel":
                trials[-1].update(p=s.note, channel=s.ms)
            elif s.name == "codec.decode":
                success, unresolved, _ = s.note
                trials[-1].update(decode=s.ms, decode_self=s.ms - child_ms[i], unresolved=unresolved)
                trials[-1].update(reduce=0.0, peel=0.0, resolved=0, outer=0.0, outer_calls=0, rescued=0)
            elif s.name == "codec.graph_reduce_instance":
                trials[-1]["reduce"] += s.ms
            elif s.name == "codec.peel_decode":
                trials[-1]["peel"] += s.ms
                trials[-1]["resolved"] += s.note
            elif s.name == "codec.outer_decode":
                trials[-1]["outer"] += s.ms
                trials[-1]["outer_calls"] += 1
                trials[-1]["rescued"] += bool(s.note)
        if len(trials) != self.trials:
            raise RuntimeError(f"attributed {len(trials)} traced trials, expected {self.trials}")
        return trials

    @staticmethod
    def _stage_metrics(reps: list[list[dict]], suffix: str) -> dict[str, tuple[float, str]]:
        n = len(reps[0])
        per_trial = lambda key: _median([sum(t[key] for t in r) / n for r in reps])
        first = reps[0]
        calls = sum(t["outer_calls"] for t in first)
        decode_ms = [t["decode"] for r in reps for t in r]
        m = {
            "codec.encode.ms_per_trial": (per_trial("encode"), "ms"),
            "sim.bec_channel.ms_per_trial": (per_trial("channel"), "ms"),
            "codec.graph_reduce_instance.ms_per_trial": (per_trial("reduce"), "ms"),
            "codec.peel_decode.ms_per_trial": (per_trial("peel"), "ms"),
            "codec.outer_decode.ms_per_trial": (per_trial("outer"), "ms"),
            "codec.decode.self_ms_per_trial": (per_trial("decode_self"), "ms"),
            "codec.decode.ms_p50": (_quantile(decode_ms, 0.5), "ms"),
            "codec.decode.ms_p90": (_quantile(decode_ms, 0.9), "ms"),
            "codec.decode.samples": (len(decode_ms), "count"),
            "codec.peel_decode.resolved_per_trial": (
                _exact([sum(t["resolved"] for t in r) for r in reps], "resolved") / n, "count"),
            "codec.outer_decode.calls": (_exact([sum(t["outer_calls"] for t in r) for r in reps], "outer calls"), "count"),
            "codec.outer_decode.success_ratio": (sum(t["rescued"] for t in first) / max(calls, 1), "ratio"),
            "codec.unresolved_after_peel.mean": (
                _exact([sum(t["unresolved"] for t in r) for r in reps], "unresolved") / n, "fraction"),
        }
        return {name + suffix: value for name, value in m.items()}

    def layer_metrics(self, views: list[SpanView], outcome: Outcome, pooled=True, per_point=True):
        """Stage figures over all trials (``pooled``) and per channel point (suffixed)."""
        reps = [self._trials(v) for v in views]
        metrics = {}
        if per_point:
            for p in self.spec.points:
                points = [[t for t in r if t["p"] == p] for r in reps]
                metrics.update(self._stage_metrics(points, f".p{p:.2f}"))
        if pooled:
            metrics.update(self._stage_metrics(reps, ""))
            metrics["codec.instantiate.ms"] = (
                _median([v.ms("codec.instantiate") for v in views]) / len(self.cfgs), "ms")
            metrics["sim.run_sweep.self_ms_per_trial"] = (
                _median([v.self_ms("sim.run_sweep") for v in views]) / self.trials, "ms")
        return metrics


# ---------------------------------------------------------------------------
# tiny-k decoder oracle
# ---------------------------------------------------------------------------

class OracleSection:
    """Each case is one ``codec.decode`` plus the ``ml_reference_decode`` agreement check."""

    ops = {"cases_per_s": "1/s"}

    def __init__(self, cases: list[workloads.OracleCase]):
        self.cases = cases
        step = workloads.ORACLE_DRAWS  # consecutive cases share one instance
        self.groups = [cases[i : i + step] for i in range(0, len(cases), step)]
        self.reference = None

    def _pass(self) -> tuple[tuple, list[float]]:
        """(outcomes, seconds per instance) of one pass over every case."""
        flags, disagreements, times = [], 0, []
        for group in self.groups:
            t0 = time.perf_counter()
            for case in group:
                res = codec.decode(case.inst, case.rcv)
                unique, v_ml = codec.ml_reference_decode(case.inst, case.rcv)
                if res.success and not (unique and np.array_equal(res.v_vals, v_ml)):
                    disagreements += 1
                flags.append((res.success, unique))
            times.append(time.perf_counter() - t0)
        return (flags, disagreements), times

    def check(self) -> Outcome:
        out = Outcome(attempted=len(self.cases))
        for i, case in enumerate(self.cases):
            try:
                res = codec.decode(case.inst, case.rcv)
                unique, v_ml = codec.ml_reference_decode(case.inst, case.rcv)
            except Exception as exc:
                out.fail(f"case {i}: {type(exc).__name__}: {exc}")
                continue
            v = (np.cumsum(case.cw.u) & 1).astype(np.int8)
            known = res.v_vals >= 0
            if res.success and not unique:
                out.fail(f"case {i}: peel success that the ML reference denies")
            elif res.success and not np.array_equal(res.v_vals, v_ml):
                out.fail(f"case {i}: peel and ML reference disagree")
            elif not np.array_equal(res.v_vals[known], v[known]):
                out.fail(f"case {i}: decoded state differs from the transmitted one")
            elif unique and not np.array_equal(v_ml, v):
                out.fail(f"case {i}: ML reference differs from the transmitted state")
        self.reference = self._pass()[0]
        out.digest = _digest(self.reference)
        return out

    def rep(self) -> list[float]:
        """Seconds per instance (its ten cases)."""
        result, times = self._pass()
        if result != self.reference:
            raise OutputMismatch("oracle outcomes changed between repetitions")
        return times

    def summarize(self, reps: list[list[float]]) -> dict[str, float]:
        return {"cases_per_s": len(self.cases) / sum(_best_per_unit(reps))}


    def layer_metrics(self, views: list[SpanView], outcome: Outcome):
        n = len(self.cases)
        per_case = lambda name: _median([v.ms(name) for v in views]) / n
        flags = self.reference[0]
        return {
            "codec.decode.ms_per_case": (per_case("codec.decode"), "ms"),
            "codec.graph_reduce_instance.ms_per_case": (per_case("codec.graph_reduce_instance"), "ms"),
            "codec.peel_decode.ms_per_case": (per_case("codec.peel_decode"), "ms"),
            "codec.ml_reference_decode.ms_per_case": (per_case("codec.ml_reference_decode"), "ms"),
            "codec.gf2_eliminate.calls": (
                _exact([v.calls("codec.gf2_eliminate") for v in views], "gf2_eliminate calls"), "count"),
            "codec.gf2_eliminate.ms": (_median([v.ms("codec.gf2_eliminate") for v in views]), "ms"),
            "oracle.cases": (n, "count"),
            "oracle.decoder_successes": (sum(s for s, _ in flags), "count"),
            "oracle.ml_unique": (sum(u for _, u in flags), "count"),
        }
