"""phaseobs CLI benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the workload's inputs from the seed, then runs whole rounds of the
workload's CLI invocations, one at a time with a single client (a closed
loop), while another round fits in T seconds.  With --trace 0 each
invocation is a `python -m phaseobs.cli` child process (PYTHONPATH=src),
timed from start to exit, with its peak RSS read from wait4; the end-to-end
metrics of BENCHMARK.json are printed.  With --trace 1 the same invocations
run in-process through `phaseobs.cli.main(argv)`, once plain and once with
layer spans, and the per-layer metrics are printed.  Times are scaled to the
reference host speed by the spin() probe (see SPIN_REF_S and the README).
Every output is checked, outside the timed interval, against the independent
oracle in oracle.py.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: one client on a shared 2-core box; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from spawner import spin  # noqa: E402
from workloads import STARTUP_ARGV, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUPS = 2  # set-ups before the first round; one more follows each round
IMPORT_PROBES = 5  # fresh interpreters per traced run for cli.import_s
DEADLINE_S = 170.0  # children still running this long after start are killed

# spin() takes this long on the reference host when no other tenant loads it.
# Each timed sample is divided by its slowdown, spin() / SPIN_REF_S, measured
# around it: the host's load changes its speed by up to 1.8x within seconds.
SPIN_REF_S = 0.011


class Timing(NamedTuple):
    elapsed: float  # measured wall seconds
    slowdown: float  # host slowdown around the measurement

    @property
    def scaled(self) -> float:
        """Wall seconds at the reference host speed."""
        return self.elapsed / self.slowdown


# Per-layer metrics read from the spans: inclusive time (outermost calls) and
# call counts of these span names.
SPAN_TIMES = {
    "observable.from_dict_s": ("observable.PhaseMatrix.from_dict",),
    "observable.validate_s": ("observable.validate",),
    "observable.kraus_decompose_s": ("observable.kraus_decompose",),
    "distribution.window_probability_s": ("distribution.window_probability",),
    "distribution.exact_cdf_s": ("distribution.exact_cdf",),
    "distribution.kernel_apply_s": ("distribution.kernel_apply",),
    "distribution.density_grid_s": ("distribution.density_grid",),
    "distribution.window_operator_s": ("distribution.window_operator",),
    "distribution.sample_s": ("distribution.sample",),
    "spectral.localization_max_s": ("spectral.localization_max",),
    "spectral.moment_spectrum_s": ("spectral.moment_spectrum",),
    "linalg.eig_s": ("linalg.eigh", "linalg.eigvalsh"),
}
SPAN_CALLS = {
    "distribution.window_probability_calls": ("distribution.window_probability",),
    "linalg.eig_calls": ("linalg.eigh", "linalg.eigvalsh"),
}


class Run:
    """Counts and checks the operations of one benchmark run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # outputs that failed a check
        self.notes: list[str] = []  # why operations failed
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def child(self, argv: list[str]) -> tuple[Timing, float, bool]:
        """Run `phaseobs <argv>` as a child; (timing, peak RSS MB, ok)."""
        errors = self.workdir / "stderr.txt"
        timeout = max(self.start + DEADLINE_S - time.perf_counter(), 0.0)
        request = {"argv": [sys.executable, "-m", "phaseobs.cli", *argv],
                   "cwd": str(self.workdir), "stderr": str(errors), "timeout": timeout}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        if reply["code"] != 0:
            self.notes.append(f"exit {reply['code']}: phaseobs {' '.join(argv)}: "
                              + errors.read_text()[:500])
        timing = Timing(reply["elapsed"], reply["spin"] / SPIN_REF_S)
        return timing, reply["maxrss_kb"] / 1024.0, reply["code"] == 0

    def verify(self, op, ok: bool) -> None:
        """Count one attempted operation and check its output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        try:
            op.check(op.out)
        except oracle.OpFailed as exc:
            self.failed += 1
            self.notes.append(f"{op.label}: {exc}")
        except (oracle.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")

    def rounds(self, seconds: float, body) -> None:
        """Call body() for whole rounds while another round fits in `seconds`
        (judged by the longest round so far); always at least one."""
        since, longest = time.perf_counter(), 0.0
        while True:
            start = time.perf_counter()
            body()
            now = time.perf_counter()
            longest = max(longest, now - start)
            if now - since + longest > seconds or now - self.start > DEADLINE_S / 2:
                return


def argv_of(op) -> list[str]:
    return op.argv + ["--out", str(op.out)]


def measured(fn):
    """(fn(), Timing) with the host slowdown probed just before and after."""
    before = spin()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, Timing(elapsed, (before + spin()) / 2 / SPIN_REF_S)


def set_up(run: Run, build, seed: int) -> tuple[dict, Timing]:
    """Build the inputs and make one warm-up invocation."""
    def once():
        inputs = build(seed, run.workdir)
        _, _, ok = run.child(STARTUP_ARGV + ["--out", str(run.workdir / "warmup.json")])
        if not ok:
            raise RuntimeError("the warm-up invocation failed: " + run.notes[-1])
        return inputs
    return measured(once)


def end_to_end(run: Run, build, seed: int, round_ops, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw samples they come from as
    [seconds, slowdown] pairs."""
    samples: dict[str, list[Timing]] = {"setup": [], "startup": []}
    calls: dict[tuple, list[Timing]] = {}  # per distinct invocation
    for _ in range(SETUPS):
        inputs, timing = set_up(run, build, seed)
        samples["setup"].append(timing)
    ops = round_ops(inputs)
    rss = 0.0

    def one_round():
        nonlocal rss
        for op in ops:
            op.out.unlink(missing_ok=True)
            timing, peak, ok = run.child(argv_of(op))
            rss = max(rss, peak)
            if op.startup:
                samples["startup"].append(timing)
            else:
                samples.setdefault(op.label, []).append(timing)
                calls.setdefault(tuple(op.argv), []).append(timing)
            run.verify(op, ok)
        samples["setup"].append(set_up(run, build, seed)[1])

    run.rounds(seconds, one_round)

    def median(timings):
        return statistics.median(t.scaled for t in timings)

    per_call = [median(calls[tuple(op.argv)]) for op in ops if not op.startup]
    metrics = {"wall_s": sum(per_call),
               "slowest_call_s": max(per_call),
               "peak_rss_mb": rss,
               "startup_s": median(samples["startup"]),
               "setup_s": median(samples["setup"])}
    return metrics, samples


def import_time(run: Run) -> float:
    """Median scaled time of `import phaseobs.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import phaseobs.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out, timing = measured(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=run.workdir, env=run.env,
            capture_output=True, text=True, check=True, timeout=60))
        times.append(float(out.stdout) / timing.slowdown)
    return statistics.median(times)


def layer_metrics(summary: dict, slowdown: float) -> dict:
    """Per-layer metrics of one traced invocation, times scaled like Timing."""
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = summary["self"][layer] / slowdown
        m[f"{layer}.calls"] = summary["layer_calls"][layer]
    for metric, names in SPAN_TIMES.items():
        m[metric] = sum(summary["inclusive"].get(name, 0.0) for name in names) / slowdown
    for metric, names in SPAN_CALLS.items():
        m[metric] = sum(summary["calls"].get(name, 0) for name in names)
    return m


def per_layer(run: Run, inputs: dict, round_ops, seconds: float, spans_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from phaseobs import cli

    def call(argv) -> bool:
        try:
            return cli.main(argv) == 0  # looked up per call: the traced pass patches it
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            run.notes.append(f"phaseobs {' '.join(argv)}: {type(exc).__name__}: {exc}")
            return False

    bindings = spans.targets()
    tracer = spans.Tracer(bindings)
    ops = round_ops(inputs)
    rounds = []

    def one_round():
        m = dict.fromkeys(["cli.output_bytes", "trace.overhead_s", "trace.unaccounted_s"], 0)
        for op in ops:  # plain then traced, back to back, so both see the same host load
            _, plain = measured(lambda: call(argv_of(op)))
            op.out.unlink(missing_ok=True)
            first = len(tracer.spans)
            with tracer.patches():
                ok, traced = measured(lambda: call(argv_of(op)))
            summary = spans.summarize(tracer.spans, first)
            for key, value in layer_metrics(summary, traced.slowdown).items():
                m[key] = m.get(key, 0) + value
            m["trace.overhead_s"] += traced.scaled - plain.scaled
            m["trace.unaccounted_s"] += (traced.elapsed - sum(summary["self"].values())) \
                / traced.slowdown
            if ok:
                m["cli.output_bytes"] += op.out.stat().st_size
            run.verify(op, ok)
        peaks: list[int] = []
        with spans.peak_memory(bindings, "distribution.sample", peaks):
            for op in ops:
                if op.argv[0] == "sample":
                    call(argv_of(op))
        m["distribution.sample_peak_mb"] = max(peaks, default=0) / 2**20
        rounds.append(m)

    run.rounds(seconds, one_round)
    tracer.dump(spans_path)
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["cli.import_s"] = import_time(run)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phaseobs" / "cli.py").is_file():
        print(f"phaseobs sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    build, round_ops = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    run = Run(Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)))
    try:
        if args.trace:
            inputs = set_up(run, build, args.seed)[0]
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = per_layer(run, inputs, round_ops, args.seconds, spans_path)
        else:
            metrics, samples = end_to_end(run, build, args.seed, round_ops, args.seconds)
            (OUT_DIR / f"samples-{args.workload}-{args.seed}.json").write_text(
                json.dumps(samples))
    finally:
        run.close()
        shutil.rmtree(run.workdir, ignore_errors=True)

    if set(metrics) != {m["name"] for m in declared}:
        print(f"measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 3
    for line in sorted(set(run.notes)) + run.wrong:
        print(line, file=sys.stderr)
    correct = not run.wrong
    print(f"{args.workload} seed={args.seed} attempted={run.attempted} failed={run.failed}"
          f" correct={correct}")
    for m in declared:
        print(f"  {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
