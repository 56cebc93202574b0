"""Make sets of benchmark runs and compare them.

    python3 bench/compare.py run SET_DIR [--seeds 1-10]
    python3 bench/compare.py report SET_A [SET_B]

`run` runs the command of BENCHMARK.json once per workload and seed, with
its run_seconds and --trace 0, and stores each run's result line as
SET_DIR/<workload>-<seed>.json.  `report` prints, per workload and
end-to-end metric, each set's median and its spread (the distance between
the first and third quartiles of statistics.quantiles(values, n=4), as a
share of the median) against the metric's bound.  Given two sets it also
prints the change of the second median against the first.  It exits 1 when
a set has fewer than two runs of a workload, when a run was incorrect, when
the share of failed operations differs between runs, when a spread exceeds
its bound, or when a median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(args) -> int:
    bench = spec()
    out = Path(args.set_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in (w["name"] for w in bench["workloads"]):
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            last = proc.stdout.strip().splitlines()[-1]
            (out / f"{name}-{seed}.json").write_text(last + "\n")
            print(proc.stdout.strip().splitlines()[0], flush=True)
    return 0


def load(set_dir: str) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(set_dir).glob("*-*.json")):
        workload = path.stem.rsplit("-", 1)[0]
        runs.setdefault(workload, []).append(json.loads(path.read_text()))
    return runs


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(args) -> int:
    bench = spec()
    sets = [load(d) for d in args.sets]
    bad = []
    for w in bench["workloads"]:
        name = w["name"]
        runs = [s.get(name, []) for s in sets]
        few = [d for d, rs in zip(args.sets, runs) if len(rs) < 2]
        if few:
            bad.append(f"{name}: fewer than two runs in {few}")
            continue
        shares = [{r["failed"] / r["attempted"] for r in rs} for rs in runs]
        print(f"{name}: runs {[len(r) for r in runs]}, failed/attempted {shares}")
        if any(not r["correct"] for rs in runs for r in rs):
            bad.append(f"{name}: an incorrect run")
        if len(set().union(*shares)) != 1:
            bad.append(f"{name}: the share of failed operations differs between runs")
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            cells = []
            medians = []
            for d, rs in zip(args.sets, runs):
                values = [r["metrics"][key]["value"] for r in rs]
                med, spr = statistics.median(values), spread(values)
                medians.append(med)
                cells.append(f"median {med:10.5g} spread {spr:6.1%}")
                if spr > bound:
                    bad.append(f"{name} {key}: spread {spr:.1%} in {d} exceeds bound {bound:.0%}")
            line = f"  {key:16s} {m['unit']:3s} bound {bound:4.0%} | " + " | ".join(cells)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                line += f" | change {change:+6.1%}"
                if worse > bound:
                    line += " WORSE"
                    bad.append(f"{name} {key}: worse by {worse:.1%}, bound {bound:.0%}")
            print(line)
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run")
    run.add_argument("set_dir")
    run.add_argument("--seeds", default="1-10")
    rep = sub.add_parser("report")
    rep.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.action == "report" and len(args.sets) > 2:
        parser.error("report takes one or two sets")
    return run_set(args) if args.action == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
