"""Benchmark of the datawords pipeline: three seeded workloads, one process each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cv_hashed_db --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload train_wide --seed 1 --seconds 27 --trace 1
    python3 perfbench/run.py --ladder --seed 1

One run generates the workload's input files from the seed (the set-up,
repeated SETUP_REPS times in child processes so that its memory does not
count), runs the job once to warm up, then repeats it until `--seconds`
have passed and reports medians. Informational lines come first; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`:

* `--trace 0`: the end-to-end metrics `setup_s`, `job_s` and `peak_rss_mb`,
  measured without tracing.
* `--trace 1`: per-layer self times and counts from traced repetitions
  (see spans.py), alternated with untraced ones to measure the tracing
  overhead. Spans of the last traced repetition are written to
  perfbench/results/trace-<workload>-s<seed>.jsonl.

The CPU speed of a small shared VM swings by up to 1.8x within seconds, so
`job_s` is given at a fixed reference speed: `SpeedProbe` times a fixed
slice of Python and numpy work every PROBE_PERIOD_S while a
repetition runs, and the repetition's wall time is scaled by how much slower
than PROBE_REF_S those slices ran. A slower program still shows in full,
since the probe runs none of its code. The raw wall-clock median is printed
on the `metric <job>_wall_s` line. `setup_s` is scaled the same way, by
probe samples the measuring process takes while it waits for the set-up's
child process; its raw median is on the `metric setup_wall_s` line.

`--ladder` is not part of the repeated measurement: it runs the shapes of
`train_wide` and `cv_hashed_db` at three sizes each, one traced repetition
per size in its own process, and reports how fast the threshold fit,
`prepare_units` and peak memory grow with size.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread per process, set before numpy is first imported.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, installed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"

SETUP_REPS = 3
# The speed probe's slice of work, how often it runs, and the seconds it is
# scaled to: about the slice's time on a 2-core x86-64 VM when no neighbour
# slows it down.
PROBE_LOOPS = 40_000
PROBE_TABLE = 60_000
PROBE_READS = 20_000
PROBE_VECTOR = 1 << 16
PROBE_VECTOR_REPS = 8
PROBE_PERIOD_S = 0.2
PROBE_REF_S = 0.006
TRACE_METRICS = {
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

LADDER = {"train_wide": (2000, 4000, 8000), "cv_hashed_db": (1500, 3000, 6000)}
LADDER_METRICS = ("model.fit_threshold_s", "model.prepare_units_s", "peak_rss_mb")


def load_library():
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "datawords" / "__init__.py").is_file():
        raise SystemExit(f"error: no datawords package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import datawords

    if Path(datawords.__file__).resolve().parent != SRC / "datawords":
        raise SystemExit(f"error: imported datawords from {datawords.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "pipeline_threads": 1,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedProbe:
    """Samples the machine's speed while a repetition runs.

    One sample times a fixed slice of work of the kinds the jobs do: a
    pure-Python loop, reads of a 2 MB Python list in random order, and a few
    numpy vector operations. Without the random reads the slice stays in
    cache and misses part of a slowdown that the jobs, whose data does not
    fit in cache, feel in full. A sample is taken before and after the
    repetition, and a SIGALRM timer takes one every PROBE_PERIOD_S during
    it; the time spent in those is taken out of the repetition's wall time.
    The slices are short and periodic, so their mean tracks the speed the
    repetition itself ran at.
    """

    def __init__(self):
        import numpy

        self.table = [float(i) for i in range(PROBE_TABLE)]
        self.order = random.Random(0).sample(range(PROBE_TABLE), PROBE_READS)
        self.x = numpy.linspace(0.0, 1.0, PROBE_VECTOR)
        self.y = self.x[::-1].copy()
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        for i in self.order:
            total += self.table[i]
        for _ in range(PROBE_VECTOR_REPS):
            self.y += 1e-9 * self.x
            total += self.x.dot(self.y)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def clock(self) -> float:
        """Seconds, without those the probe took during a repetition."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - start

    def run(self, fn, in_process=True):
        """Run `fn()`; returns its result, its wall seconds and those seconds
        at the reference speed. With `in_process`, `fn` runs in this thread
        and the probe's own time is taken out; otherwise `fn` waits for a
        child process, which runs alongside the probe."""
        self.samples, self.spent = [], 0.0
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        if in_process:
            wall -= self.spent
        return result, wall, wall * statistics.fmean(PROBE_REF_S / t for t in self.samples)


def generate(workload: str, seed: int, size: int, dest: Path, probe) -> tuple[float, float]:
    """Write a workload's inputs in a child process; returns its wall seconds
    and those seconds at the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = [sys.executable, str(BENCH_DIR / "gen.py"), workload, str(seed), str(size), str(dest)]
    _, wall, scaled = probe.run(lambda: subprocess.run(args, env=env, check=True), in_process=False)
    return wall, scaled


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(path.iterdir())}


def timed(wl, probe, span=None):
    rep, wall, scaled = probe.run(lambda: wl.run(span) if span is not None else wl.run())
    rep.wall, rep.scaled = wall, scaled
    rep.sha256 = {name: sha256_file(wl.out / name) for name in rep.files}
    return rep


def traced(wl, probe):
    tracer = Tracer()
    with installed(tracer):
        rep = timed(wl, probe, tracer.span)
    return rep, tracer


def layer_metrics(tracer) -> dict[str, float]:
    out = tracer.layer_metrics()
    out["bench.self_s"] = sum(v for k, v in tracer.self_time.items() if k.startswith("bench."))
    out["trace.spans"] = len(tracer.spans)
    return out


def layer_unit(name: str) -> str:
    if name in TRACE_METRICS:
        return TRACE_METRICS[name]
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def set_up(name: str, seed: int, size: int, work: Path, probe, checks: list) -> tuple[Path, list]:
    """SETUP_REPS independent set-ups in child processes; returns the first
    one's input directory and every set-up's (wall, reference-speed) seconds."""
    dirs = [work / f"setup{i}" for i in range(SETUP_REPS)]
    times = [generate(name, seed, size, d, probe) for d in dirs]
    digests = [digest_dir(d) for d in dirs]
    checks.append(("setup_inputs_identical", all(d == digests[0] for d in digests),
                   f"{SETUP_REPS} set-ups, {len(digests[0])} files"))
    return dirs[0], times


def trace_metrics(reps, traces, setup_tracer, checks) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the traced repetitions, plus tracing overhead
    against the untraced repetitions they alternated with."""
    layers = [layer_metrics(t) for _, t in traces]
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
    checks.append(("trace_counts_repeat", all(c == counts[0] for c in counts),
                   f"{len(counts)} traced reps"))
    metrics = {k: (statistics.median(m[k] for m in layers), layer_unit(k)) for k in layers[0]}
    metrics["evaluation.generate_synthetic_s"] = (
        setup_tracer.self_time.get("evaluation.generate_synthetic", 0.0), "s")
    wall = statistics.median(r.scaled for r, _ in traces)
    untraced = statistics.median(r.scaled for r in reps)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.overhead_share"] = ((wall - untraced) / untraced, "ratio")
    return metrics


def write_trace(name: str, seed: int, tracer, metrics: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{name}-s{seed}.jsonl"
    header = {"workload": name, "seed": seed, "environment": environment(),
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    tracer.write_jsonl(path, header)
    print(f"trace {path.relative_to(ROOT)} {len(tracer.spans)} spans")
    wall = tracer.total_time["bench.job"]
    # self time, then inclusive time, of each span name as a share of the job
    for span_name, self_s in sorted(tracer.self_time.items(), key=lambda kv: -kv[1]):
        total = tracer.total_time[span_name]
        print(f"layer {span_name} self {self_s:.4f} s {self_s / wall:.1%} "
              f"inclusive {total:.4f} s {total / wall:.1%}")


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    import gen
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    checks = []
    probe = SpeedProbe()
    try:
        if trace:
            # one in-process set-up, traced, for the generator's own time
            setup_tracer = Tracer()
            inputs = work / "inputs"
            inputs.mkdir(parents=True)
            with installed(setup_tracer):
                gen.GENERATORS[name](seed, cls.size, inputs)
        else:
            inputs, setup_times = set_up(name, seed, cls.size, work, probe, checks)
        (work / "out").mkdir()
        wl = cls(inputs, work / "out")
        wl.clock = probe.clock

        timed(wl, probe)  # warm-up, discarded
        reps, traces = [], []
        deadline = time.perf_counter() + seconds
        while True:
            reps.append(timed(wl, probe))
            if trace:
                traces.append(traced(wl, probe))
            if time.perf_counter() >= deadline:
                break
        peak = peak_rss_mb()

        all_reps = reps + [r for r, _ in traces]
        checks.append(("outputs_identical_across_reps",
                       all(r.sha256 == reps[0].sha256 for r in all_reps), f"{len(all_reps)} reps"))
        checks.extend(wl.checks(reps))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    named = named_metrics(wl, reps)
    if trace:
        metrics = trace_metrics(reps, traces, setup_tracer, checks)
        write_trace(name, seed, traces[-1][1], metrics)
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup_times), "s"),
            "job_s": named[wl.job_name],
            "peak_rss_mb": (peak, "MB"),
        }
        named.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"],
                     setup_wall_s=(statistics.median(w for w, _ in setup_times), "s"))

    failed = sum(not ok for _, ok, _ in checks)
    attempted = sum(r.ops for r in all_reps) + len(checks)
    named["error_rate"] = (failed / attempted, "ratio")
    print("env " + json.dumps(environment(), sort_keys=True))
    for fname, digest in sorted(reps[0].sha256.items()):
        print(f"sha256 {fname} {digest}")
    for cname, ok, detail in checks:
        print(f"check {cname} {'ok' if ok else 'FAILED'} {detail}".rstrip())
    for mname, (value, unit) in named.items():
        print(f"metric {mname} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def named_metrics(wl, reps) -> dict[str, tuple[float, str]]:
    """The job's figures under the names a reader of this workload expects;
    times are at the reference speed unless named `_wall_s`."""
    times = [r.scaled for r in reps]
    job = statistics.median(times)
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (job, job, job)
    named = {
        wl.job_name: (job, "s"),
        f"{wl.job_name}_iqr": (q3 - q1, "s"),
        f"{wl.job_name.removesuffix('_s')}_wall_s": (statistics.median(r.wall for r in reps), "s"),
        "cpu_slowdown": (statistics.median(r.wall / r.scaled for r in reps), "x"),
        "reps": (len(reps), "count"),
        wl.rate_name: (reps[0].units / job, "1/s"),
    }
    named.update(wl.report(reps))
    return named


def rung(name: str, seed: int, size: int) -> int:
    """One ladder rung: set up once, run one traced repetition."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    work = WORK / f"rung-{name}-{size}-s{seed}-p{os.getpid()}"
    try:
        setup_s, _ = generate(name, seed, size, work / "inputs", SpeedProbe())
        (work / "out").mkdir()
        rep, tracer = traced(cls(work / "inputs", work / "out"), SpeedProbe())
        result = {"workload": name, "size": size, "setup_s": setup_s, "job_s": rep.wall,
                  "peak_rss_mb": peak_rss_mb(), **layer_metrics(tracer)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def growth_exponent(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ladder(seed: int) -> int:
    results = {"seed": seed, "environment": environment(), "rungs": [], "exponents": {}}
    for name, sizes in LADDER.items():
        rows = []
        for size in sizes:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--rung", str(size)],
                check=True, stdout=subprocess.PIPE, text=True,
            )
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(row)
            print(f"rung {name} size={size} job_s={row['job_s']:.3f} "
                  + " ".join(f"{m}={row[m]:.4g}" for m in LADDER_METRICS), flush=True)
        results["rungs"].extend(rows)
        for metric in LADDER_METRICS:
            values = [r[metric] for r in rows]
            if all(v > 0 for v in values):
                exponent = growth_exponent(sizes, values)
                results["exponents"][f"{name}.{metric}"] = exponent
                print(f"exponent {name} {metric} {exponent:.3f}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"ladder-s{seed}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"ladder {path.relative_to(ROOT)}")
    print(json.dumps(results["exponents"], sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true", help="run the size ladder instead")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_library()
    if args.ladder:
        return ladder(args.seed)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.rung is not None:
        return rung(args.workload, args.seed, args.rung)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
