"""dpsched benchmark: runs one workload and prints its metrics.

Usage, from the repository root:
    python3 perfbench/run.py --workload {walk,brute,lp,sim} --seed N \
        --seconds S --trace {0,1}

The package is imported from ./src.  A run first times SETUP_SAMPLES
set-ups, each a fresh interpreter doing `import dpsched` plus the
workload's input preparation.  It then runs one untimed warm-up operation and
repeats the workload's rounds until S seconds have passed, checking every
output.  With --trace 0 it reports the end-to-end metrics, timing the
reference kernel of calib.py between operations and scaling every time to
the kernel's reference speed (see calib.py); with --trace 1 it
alternates traced and untraced runs of each operation, requires their
outputs to be bit-identical, and reports the per-layer metrics per round.
The line before the result holds the run's output and machine facts; the
last line of stdout is the result as JSON.  Metric names and units must
match BENCHMARK.json.
"""
import os

# Pinned before numpy loads.  The largest dense solve is 204 x 204, where
# BLAS threads do not pay off on this scale and add run-to-run noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
TAIL_ABOVE = 10  # samples that must lie above the reported tail percentile
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("walk", "brute", "lp", "sim"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def setup_sample(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def timed(fn):
    """(output or the exception raised, seconds)."""
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing route is counted, not fatal
        out = exc
    return out, perf_counter() - t0


class Run:
    """Operations, outcomes and timings of one workload run."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.inputs = wl.prepare(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.first_round: list = []
        self.sample_facts: dict = {}

    def outcome(self, key, out) -> bool:
        """Check one output; count and record it; True if it is correct."""
        self.attempted += 1
        if isinstance(out, Exception):
            err = f"{type(out).__name__}: {out}"
        else:
            try:
                err = self.wl.check(self.inputs, key, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append(err)
        return err is None

    def output_facts(self) -> dict:
        outs = [o for o in self.first_round if not isinstance(o, Exception)]
        return self.wl.facts(self.inputs, outs) if outs else {}

    def warm_up(self) -> None:
        key = self.wl.round_keys(self.inputs, self.seed, 0)[0]
        self.outcome(key, timed(lambda: self.wl.run(self.inputs, key))[0])

    def rounds(self, seconds: float):
        """Yield (round index, keys) until `seconds` have passed; at least one."""
        deadline = perf_counter() + seconds
        r = 0
        while r == 0 or perf_counter() < deadline:
            yield r, self.wl.round_keys(self.inputs, self.seed, r)
            r += 1

    def untraced(self, seconds: float) -> dict:
        from calib import REF_S, Kernel

        kernel = Kernel()
        self.warm_up()
        kernel.run()  # warm-up
        times: dict = {}  # input key -> normalised seconds of each correct run
        wall, kernel_times = [], [kernel.seconds()]
        for r, keys in self.rounds(seconds):
            for key in keys:
                out, dt = timed(lambda: self.wl.run(self.inputs, key))
                kernel_times.append(kernel.seconds())
                if r == 0:
                    self.first_round.append(out)
                if self.outcome(key, out):
                    # the machine's speed around the operation: the mean of
                    # the kernel times just before and just after it
                    speed = REF_S / statistics.fmean(kernel_times[-2:])
                    times.setdefault(key, []).append(dt * speed)
                    wall.append(dt)
        if not times:
            raise SystemExit("no operation succeeded: " + "; ".join(self.failures[:3]))
        # Repeats of one input differ only by machine noise, so each input is
        # timed by its median over the run; the statistics are across inputs.
        per_input = {key: statistics.median(v) for key, v in times.items()}
        ordered = sorted(per_input.values())
        m = len(ordered)
        p50 = statistics.median(ordered)
        tail, tail_pct = p50, 50.0
        if m > TAIL_ABOVE:
            tail, tail_pct = ordered[m - TAIL_ABOVE - 1], 100.0 * (m - TAIL_ABOVE) / m
        work = sum(self.wl.work(self.inputs, key) for key in per_input)
        samples = [dt for v in times.values() for dt in v]
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (p50, p50, p50)
        self.sample_facts = {"ops_timed": len(samples), "distinct_inputs": m,
                             "repeats_per_input": min(map(len, times.values())),
                             "op_s_q1_all": q1, "op_s_q3_all": q3,
                             "op_s_tail_percentile": tail_pct, "work_unit": self.wl.work_unit,
                             "op_wall_s_p50_all": statistics.median(wall),
                             "kernel_s_p50": statistics.median(kernel_times),
                             "kernel_s_min": min(kernel_times), "kernel_ref_s": REF_S}
        return {"op_s.p50": p50, "op_s.tail": tail, "work_per_s": work / sum(ordered)}

    def traced(self, seconds: float) -> dict:
        from spans import Tracer

        tracer = Tracer()

        def run_traced(key):
            with tracer.recording():
                return self.wl.run(self.inputs, key)

        self.warm_up()
        times = {True: [], False: []}
        rounds = 0
        for r, keys in self.rounds(seconds):
            for i, key in enumerate(keys):
                outs = {}
                # alternate which side runs first
                for traced in ((True, False) if (r + i) % 2 == 0 else (False, True)):
                    fn = (lambda: run_traced(key)) if traced else (lambda: self.wl.run(self.inputs, key))
                    outs[traced], dt = timed(fn)
                    times[traced].append(dt)
                    self.outcome(key, outs[traced])
                if r == 0:
                    self.first_round.append(outs[False])
                if not any(isinstance(o, Exception) for o in outs.values()):
                    self.attempted += 1
                    a, b = (self.wl.output_key(outs[t]) for t in (True, False))
                    if repr(a) != repr(b):
                        self.failures.append(f"traced and untraced outputs differ for {key!r}")
            rounds += 1
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.overhead_share"] = (sum(times[True]) / sum(times[False]) - 1.0, "share")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{self.wl.name}.npz"
        tracer.save(spans_path)
        summary = tracer.summary()
        self.sample_facts = {
            "traced_rounds": rounds,
            "op_s_p50_traced": statistics.median(times[True]),
            "op_s_p50_untraced": statistics.median(times[False]),
            "self_s_per_round": {k: v["self_s"] / rounds for k, v in summary.items()},
            "spans": len(tracer.start),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
        return metrics


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": BLAS_THREADS, "platform": platform.platform()}


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dpsched" / "__init__.py").is_file():
        print(f"no dpsched sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    setups = [] if args.trace else [setup_sample(args.workload, args.seed)
                                    for _ in range(SETUP_SAMPLES)]

    from calib import REF_S
    from workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload](), args.seed)
    if args.trace:
        metrics = run.traced(args.seconds)
    else:
        values = run.untraced(args.seconds)
        values["setup_s"] = statistics.median(
            (s["import_s"] + s["prep_s"]) * REF_S / s["kernel_s"] for s in setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {k: (v, declared.get(k)) for k, v in values.items()}
    if {k: u for k, (_, u) in metrics.items()} != declared:
        raise SystemExit("reported metrics differ from those declared in BENCHMARK.json")

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "output": run.output_facts(),
        "samples": run.sample_facts,
        "failures": run.failures[:MAX_REPORTED_FAILURES],
    }
    if setups:
        facts["setup"] = {k: [s[k] for s in setups] for k in ("import_s", "prep_s", "kernel_s")}
    print("facts " + json.dumps(facts))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
