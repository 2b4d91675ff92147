"""raclab benchmark: one fixed batch job per workload, timed, gated and traced.

    python3 perfbench/run.py --workload queue-delay --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports raclab from ``src/``.  One
single-threaded client drives the workload's job as a closed loop, one call
at a time with ``workers=1``, repeating the job with seeds derived from
``--seed`` until ``--seconds`` are used.  Set-up (imports, the reference
beta tables and the dmt reference values) runs outside the timed section,
once in this process and twice more in fresh interpreters; ``setup_s`` is
the median.  Times are normalised to a reference machine speed measured
around every call (speed.py).  After the timed section every output is checked against the
closed forms (see workloads.py) and the reproducibility probes are run.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the repetitions alternate untraced and traced, and the
metrics are the per-layer ones (spans.py) plus the job's leg rates.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A per-run record
(environment, every repetition, every check) goes to ``perfbench/out/``.
"""

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads: one BLAS thread

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import measure_speed, normalised  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_CHILDREN = 2          # extra set-up samples, each in a fresh interpreter
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The job's leg rates, reported with the per-layer metrics of a traced run.
JOB_RATES = (
    ("slots_per_s.irarq", "slots/s"),
    ("slots_per_s.gta", "slots/s"),
    ("slots_per_s.ondma", "slots/s"),
    ("slots_per_s.irarq_inf", "slots/s"),
    ("epochs_per_s.gta", "epochs/s"),
    ("epochs_per_s.ondma", "epochs/s"),
    ("epochs_per_s.irarq", "epochs/s"),
    ("epochs_per_s.gta_tree", "epochs/s"),
    ("trials_per_s.beta_k2", "trials/s"),
    ("trials_per_s.k4_2x4", "trials/s"),
    ("trials_per_s.k3_2x2", "trials/s"),
)


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_raclab():
    src = ROOT / "src"
    if not (src / "raclab" / "__init__.py").is_file():
        raise HarnessError(f"raclab sources not found under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import raclab
    import raclab.channel, raclab.dmt, raclab.montecarlo, raclab.protocols  # noqa: E401,F401
    import raclab.queueing, raclab.system  # noqa: E401,F401
    return raclab


def derive_seed(seed: int, rep: int, leg: int) -> int:
    """Seed of one leg in one repetition; distinct for every (rep, leg)."""
    return seed * 1_000_000 + rep * 100 + leg


# Set-up is imports and numpy estimators whatever the workload, so it is
# normalised with the array probe; interpreter probes taken right after
# set-up scattered over a factor of two and made setup_s noisier.
SETUP_PROBE = "array"


def setup_speed() -> float:
    """Machine speed right after a set-up."""
    return measure_speed(SETUP_PROBE)


def setup_sample(args) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter from script start, and its speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"set-up sample failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(sample["setup_s"]), float(sample["speed_s"])


def run_reps(legs, seed: int, budget_s: float, probe_kind: str, tracer=None):
    """Repeat the job until the next repetition would overrun ``budget_s``.

    Every call is timed between two speed measurements and its time
    normalised (speed.py). With a tracer, repetitions alternate untraced and traced,
    so that drifts in machine speed hit both alike.
    """
    from workloads import Call

    reps = []
    begin = time.perf_counter()
    longest = 0.0
    min_reps = 1 if tracer is None else 2
    while len(reps) < min_reps or time.perf_counter() - begin + longest <= budget_s:
        rep = len(reps)
        traced = tracer is not None and rep % 2 == 1
        r0 = time.perf_counter()
        calls = []
        speeds = [measure_speed(probe_kind)]
        if traced:
            tracer.request = rep
            tracer.install()
        try:
            for i, leg in enumerate(legs):
                c0 = time.perf_counter()
                try:
                    result, error = leg.call(derive_seed(seed, rep, i)), None
                except Exception:   # a failing call is a failed operation, not a crash
                    result, error = None, traceback.format_exc()
                raw = time.perf_counter() - c0
                speeds.append(measure_speed(probe_kind))
                speed = (speeds[-2] + speeds[-1]) / 2.0
                calls.append(Call(rep, i, normalised(raw, speed, probe_kind), raw, result, error))
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, time.perf_counter() - r0)
        reps.append({"rep": rep, "traced": traced, "calls": calls, "speed_probes": speeds,
                     "wall_s": sum(c.seconds for c in calls),
                     "raw_wall_s": sum(c.raw_seconds for c in calls)})
    return reps


def leg_rates(legs, reps, field: str = "seconds") -> dict[str, tuple[float, str]]:
    """Median over repetitions of each leg metric's work per second.

    ``field`` picks the call time: "seconds" (normalised) or "raw_seconds".
    """
    per_rep: dict[str, list[float]] = {}
    units = {}
    for r in reps:
        work: dict[str, float] = {}
        secs: dict[str, float] = {}
        for c in r["calls"]:
            if c.error is None:
                leg = legs[c.leg]
                work[leg.metric] = work.get(leg.metric, 0.0) + leg.work(c.result)
                secs[leg.metric] = secs.get(leg.metric, 0.0) + getattr(c, field)
                units[leg.metric] = leg.unit
        for metric in work:
            per_rep.setdefault(metric, []).append(work[metric] / secs[metric])
    return {m: (statistics.median(v), units[m]) for m, v in per_rep.items()}


def run_checks(legs, calls, workload, seed):
    """Per-call checks, the gate and the probes; each is one operation."""
    checks = []
    for c in calls:
        leg = legs[c.leg]
        if c.error is not None:
            checks.append((False, f"rep {c.rep} {leg.label}: raised\n{c.error}"))
        elif leg.check is not None:
            ok, msg = leg.check(c.result)
            checks.append((ok, f"rep {c.rep} {leg.label}: {msg}"))
        else:
            checks.append((True, f"rep {c.rep} {leg.label}: returned"))
    try:
        gate, notes = workload.gate(calls)
    except Exception:
        gate, notes = [(False, f"gate raised\n{traceback.format_exc()}")], []
    probes = []
    for probe in workload.probes(seed):
        try:
            probes.append(probe())
        except Exception:
            probes.append((False, f"probe {probe.__name__} raised\n{traceback.format_exc()}"))
    return checks, gate, probes, notes


def environment(rl, seed: int) -> dict:
    import numpy

    env = {
        "seed": seed,
        "git_sha": None,
        "git_dirty": None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": None,
        "raclab": getattr(rl, "__version__", None),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=30)
            dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=30)
            if sha.returncode == 0:
                env["git_sha"] = sha.stdout.strip()
                env["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def declared_metrics(trace: int) -> dict[str, str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS

    rl = import_raclab()
    workload = WORKLOADS[args.workload](rl)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(uuid.uuid4().hex)
        tracer.install()
    t_setup = time.perf_counter()
    workload.setup(args.seed)
    t_ready = time.perf_counter()
    setup_samples = [(t_ready - T_START, setup_speed())]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0][0], "speed_s": setup_samples[0][1]}))
        return 0
    traced_s = 0.0
    if tracer is not None:
        traced_s = t_ready - t_setup
        tracer.uninstall()
    else:
        setup_samples += [setup_sample(args) for _ in range(SETUP_CHILDREN)]
    setup_s = statistics.median(normalised(raw, speed, SETUP_PROBE)
                                for raw, speed in setup_samples)

    legs = workload.legs()
    reps = run_reps(legs, args.seed, args.seconds, workload.speed_probe, tracer)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    traced_s += sum(r["raw_wall_s"] for r in traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    calls = [c for r in reps for c in r["calls"]]
    checks, gate, probes, notes = run_checks(legs, calls, workload, args.seed)
    checks, gate, probes = ([(bool(ok), msg) for ok, msg in group] for group in (checks, gate, probes))
    ops = checks + gate + probes
    failed = sum(1 for ok, _ in ops if not ok)
    rates = leg_rates(legs, plain)
    plain_wall = statistics.median(r["wall_s"] for r in plain)

    if tracer is None:
        values = {"wall_s": plain_wall, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        from spans import per_layer_metric_units

        # raw times: the tracer's spans slow the speed probes as well
        overhead = (statistics.median(r["raw_wall_s"] for r in traced)
                    / statistics.median(r["raw_wall_s"] for r in plain) - 1.0)
        values = tracer.metrics(traced_s, overhead)
        units = dict(per_layer_metric_units())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        for metric, unit in JOB_RATES:
            value = rates.get(metric, (0.0, unit))[0]
            metrics[f"job.{metric}"] = {"value": value, "unit": unit}
    declared = declared_metrics(args.trace)
    if declared is not None and declared != {k: m["unit"] for k, m in metrics.items()}:
        raise HarnessError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(declared) ^ set(metrics))}")

    env = environment(rl, args.seed)
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics,
        "leg_rates": {m: {"value": v, "unit": u} for m, (v, u) in rates.items()},
        "raw_leg_rates": {m: {"value": v, "unit": u}
                          for m, (v, u) in leg_rates(legs, plain, "raw_seconds").items()},
        "setup_samples_s": setup_samples,
        "reps": [{"rep": r["rep"], "wall_s": r["wall_s"], "raw_wall_s": r["raw_wall_s"],
                  "traced": r["traced"], "speed_probes": r["speed_probes"],
                  "calls": [{"leg": legs[c.leg].label, "seconds": c.seconds,
                             "raw_seconds": c.raw_seconds, "error": c.error}
                            for c in r["calls"]]} for r in reps],
        "gate": gate, "probes": probes, "notes": notes,
        "failed_checks": [msg for ok, msg in ops if not ok],
        "peak_rss_mb": peak_rss_mb,
    }
    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        spans_file = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.save(spans_file)
        record["spans_file"] = spans_file.name
        record["observer_errors"] = tracer.observer_errors
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload}: {len(reps)} reps ({len(plain)} untraced), "
          f"{len(ops)} operations, {failed} failed")
    for ok, msg in gate + probes:
        print(f"# {'ok ' if ok else 'BAD'} {msg}")
    for msg in notes:
        print(f"# note {msg}")
    for ok, msg in checks:
        if not ok:
            print(f"# BAD {msg}")
    for metric, (value, unit) in sorted(rates.items()):
        print(f"# leg {metric} = {value:.6g} {unit}")
    print("# env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
