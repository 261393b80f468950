#!/usr/bin/env python3
"""aracodes benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is imported from the checkout's ``src``; the run fails (exit
code 2, no result) when it is missing.  Workloads (see ``workloads.py``):

* ``design-catalog``: construct, de and verify over the nine families,
  with doses of the k = 8192 sweep (p = 0.40 and 0.46) and the oracle;
* ``waterfall-64k``: ``sim.run_sweep`` at k = 65536, p = 0.46, with doses
  of the design commands and the oracle.

The oracle decodes tiny-k words and checks each against the GF(2)
reference decoder.

Every run reports every end-to-end metric: each workload gives most of
``--seconds`` to its own section and fixed shares to short doses of the
other two, with the reps of all sections interleaved.  A reported time
is the sum, over the section's units (one CLI call, one instance sweep,
one oracle instance), of each unit's best time over the reps, scaled by
the speed probe of ``calibration.py`` to the probe's reference speed;
the raw figures stay in the record.  ``setup_s`` is the best of three
fresh interpreters importing ``aracodes.cli`` and building the
workload's pairs and instances, scaled the same way.

``--trace 1`` runs every section with the public functions wrapped (see
``tracer.py``), interleaved with untraced reps of the workload's own
section for ``trace.overhead_ratio``, and prints per-layer metrics.  Sweep-stage metrics without a suffix describe
the workload's own sweep; those suffixed ``.p0.40`` / ``.p0.46`` always
describe the k = 8192 sweep, which the traced run of waterfall-64k adds
for that purpose.  Counts (calls, resolutions, outer attempts,
unresolved fractions) repeat exactly for a fixed seed.

The last line of standard output is the JSON result; the line before it
records the environment, per-section outcomes and output digests.  Both
are also written, with the spans of a traced run, under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
MIN_REPS_PRIMARY = 2
MIN_REPS_DOSE = 3
UNTRACED = "untraced"  # pseudo-section of a traced run: the workload's own section, unwrapped
CHILD_TIMEOUT_S = 120
PROBES_PER_REP = 3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )


def setup_samples(workload: str, seed: int, speed_probe) -> list[dict]:
    """Set-up times from fresh interpreters, each preceded by speed probes."""
    script = str(Path(__file__).resolve().parent / "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe_s = min(speed_probe() for _ in range(3))
        out = json.loads(_run_child([sys.executable, script, workload, str(seed)]).stdout.splitlines()[-1])
        if not Path(out.pop("module")).resolve().is_relative_to(SRC):
            raise RuntimeError("setup probe imported aracodes from outside the checkout")
        samples.append(dict(out, probe_s=probe_s))
    return samples


def import_times() -> dict[str, float]:
    """Cumulative import seconds of aracodes.cli and of scipy under it (-X importtime)."""
    err = _run_child([sys.executable, "-X", "importtime", "-c", "import aracodes.cli"]).stderr
    entries = []  # (depth, name, cumulative us), children listed before their parent
    for line in err.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cum_us, raw = line[len("import time:"):].split("|")
        entries.append(((len(raw) - len(raw.lstrip()) - 1) // 2, raw.strip(), int(cum_us)))
    aracodes_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(entries):  # parents now precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if depth == 0 and (name == "aracodes" or name.startswith("aracodes.")):
            aracodes_us += cum
        if name.split(".")[0] == "scipy" and not (parent or "").startswith("scipy"):
            scipy_us += cum
        stack.append((depth, name))
    if not aracodes_us or not scipy_us:
        raise RuntimeError("import trace lacks aracodes or scipy")
    return {"cli.import_s": aracodes_us / 1e6, "cli.import.scipy_s": scipy_us / 1e6}


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment() -> dict:
    import numpy
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest()[:16],
    }


def schedule(run_rep, shares: dict, seconds: float, min_reps: dict) -> dict:
    """Interleave timed reps, keeping each section's time near its share.

    Runs until ``seconds`` have passed and every section has its minimum
    number of reps; returns the samples of each section.
    """
    samples = {name: [] for name in shares}
    spent = dict.fromkeys(shares, 0.0)
    end = time.perf_counter() + seconds
    while True:
        short = [n for n in shares if len(samples[n]) < min_reps[n]]
        if time.perf_counter() >= end:
            if not short:
                return samples
            pool = short
        else:
            pool = list(shares)
        name = min(pool, key=lambda n: spent[n] / shares[n])
        t0 = time.perf_counter()
        samples[name].append(run_rep(name))
        spent[name] += time.perf_counter() - t0


def build_sections(workload, seed: int):
    import sections as sec
    import workloads

    inputs = workloads.build_inputs(workload, seed)
    built = {
        "catalog": sec.CatalogSection(),
        "sweep": sec.SweepSection(workload.sweep),
        "oracle": sec.OracleSection(inputs["oracle_cases"]),
    }
    return built, inputs


def _low_quantile(values: list[float]) -> float:
    """The probe's speed in the run's fast moments: its 10th-percentile time."""
    return sorted(values)[len(values) // 10]


def run_untraced(workload, seed, seconds, record) -> dict:
    import sections as sec
    from calibration import REFERENCE_S, Probe

    probe = Probe()
    setups = setup_samples(workload.name, seed, probe)
    record["setup_samples"] = setups
    sections, _ = build_sections(workload, seed)
    outcomes = {name: s.check() for name, s in sections.items()}
    min_reps = {n: MIN_REPS_PRIMARY if n == workload.primary else MIN_REPS_DOSE for n in workload.shares}
    probe_times = []

    def rep(name):
        probe_times.extend(probe() for _ in range(PROBES_PER_REP))
        return sections[name].rep()

    try:
        samples = schedule(rep, workload.shares, seconds, min_reps)
    except sec.OutputMismatch as exc:
        record["mismatch"] = str(exc)
        samples = {n: [] for n in sections}
    record["samples"] = samples
    record["probe_times"] = probe_times

    # best times, scaled to the probe's reference speed (see calibration.py)
    best_setup = min(setups, key=lambda s: s["setup_s"])
    metrics = {"setup_s": (best_setup["setup_s"] * REFERENCE_S / _low_quantile([s["probe_s"] for s in setups]), "s")}
    record["raw"] = {"setup_s": best_setup["setup_s"]}
    scale = REFERENCE_S / _low_quantile(probe_times)
    for name, section in sections.items():
        values = section.summarize(samples[name]) if samples[name] else dict.fromkeys(section.ops, 0.0)
        for op, unit in section.ops.items():
            metrics[op] = (values[op] * scale if unit == "s" else values[op] / scale, unit)
            record["raw"][op] = values[op]
    return outcomes, metrics


def run_traced(workload, seed, seconds, record) -> dict:
    import sections as sec
    import workloads
    from tracer import Tracer

    metrics = dict((k, (v, "s")) for k, v in import_times().items())
    sections, inputs = build_sections(workload, seed)
    if workload.sweep != workloads.SWEEP_8K:
        sections["sweep.k8192"] = sec.SweepSection(workloads.SWEEP_8K)
    outcomes = {name: s.check() for name, s in sections.items()}
    primary = workload.primary

    tracer = Tracer()
    ranges = {name: [] for name in sections}

    def rep(name):
        if name == UNTRACED:
            return sections[primary].rep()
        with tracer.patched():
            lo = len(tracer.spans)
            sample = sections[name].rep()
            ranges[name].append((lo, len(tracer.spans)))
        return sample

    # untraced reps of the workload's own section are interleaved with the
    # traced ones, so the overhead ratio is not skewed by drift of the machine
    shares = dict(workload.shares, **{UNTRACED: workload.shares[primary] / 2})
    shares.update({n: 0.05 for n in sections if n not in shares})
    min_reps = {n: 2 if n in (primary, UNTRACED) else 1 for n in shares}
    samples = schedule(rep, shares, seconds, min_reps)
    tracer.require_fired()

    child_ms = tracer.child_ms()
    views = {n: [sec.SpanView(tracer, lo, hi, child_ms) for lo, hi in r] for n, r in ranges.items()}
    metrics.update(sections["catalog"].layer_metrics(views["catalog"], outcomes["catalog"]))
    metrics.update(sections["oracle"].layer_metrics(views["oracle"], outcomes["oracle"]))
    own = sections["sweep"]
    if "sweep.k8192" in sections:
        metrics.update(own.layer_metrics(views["sweep"], outcomes["sweep"], per_point=False))
        metrics.update(sections["sweep.k8192"].layer_metrics(views["sweep.k8192"], outcomes["sweep.k8192"], pooled=False))
    else:
        metrics.update(own.layer_metrics(views["sweep"], outcomes["sweep"]))
    metrics["codec.instance_bytes"] = (workloads.instance_bytes(inputs["sweep_instances"][0]), "bytes-computed")
    ratio = statistics.median(sum(s) for s in samples[UNTRACED]) / statistics.median(sum(s) for s in samples[primary])
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    record["reps"] = {n: len(v) for n, v in samples.items()}
    record["spans"] = len(tracer.spans)
    _write(f"{workload.name}-seed{seed}-spans.json", {"spans": tracer.dump()})
    return outcomes, metrics


def _write(name: str, doc: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "aracodes" / "__init__.py").is_file():
        print(f"error: no aracodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aracodes
    import workloads

    if not Path(aracodes.__file__).resolve().is_relative_to(SRC):
        print("error: aracodes was imported from outside the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    runner = run_traced if args.trace else run_untraced
    outcomes, metrics = runner(workload, args.seed, args.seconds, record)

    errors = [e for o in outcomes.values() for e in o.errors]
    record["outcomes"] = {n: vars(o) for n, o in outcomes.items()}
    result = {
        "correct": not errors and "mismatch" not in record,
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["failure_share"] = result["failed"] / result["attempted"]
    _write(f"{workload.name}-seed{args.seed}-trace{args.trace}.json", {"record": record, "result": result})
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
