#!/usr/bin/env python3
"""Runs sets of benchmark runs and reports how steady they are.

    python3 perfbench/steadiness.py run --out DIR [--workloads a,b] [--seeds 1-10] [--seconds S]
    python3 perfbench/steadiness.py report DIR [DIR2]

`run` makes one run per workload and seed (untraced) through
`bash perfbench/run.sh` and keeps each run's result and detail lines in
DIR. `report` prints, for every end-to-end metric of BENCHMARK.json and
every workload, the median and the spread of the set: the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median. Each spread is set against the metric's bound and
a third of it. Given a second set, it also prints the shift of the
second median against the first, in the metric's "worse" direction.
Every metric whose spread exceeds its bound, or whose median got worse
by more than the bound, is named in the verdict, beside the host
reference loop (a fixed loop that calls no repository code): when that
moved too, the host moved, not the program.

Run it from the repository root. It exits 1 when anything exceeds its
bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_sets(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or bench["run_seconds"]
    # Seed-major order, so that a slow phase of the host falls on every
    # workload's set alike rather than on one workload's whole set.
    for seed in seeds_of(args.seeds):
        for workload in workloads:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            record = {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}
            (out / f"{workload}-seed{seed}.json").write_text(json.dumps(record) + "\n")
            metrics = record["result"]["metrics"]
            print(f"{workload} seed {seed}: correct={record['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
    return 0


def load(directory):
    """{workload: {"metrics": {name: [values]}, "ref": [ms], "correct": [bool]}}"""
    sets = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        workload = record["details"]["workload"]
        s = sets.setdefault(workload, {"metrics": {}, "ref": [], "correct": []})
        for name, m in record["result"]["metrics"].items():
            s["metrics"].setdefault(name, []).append(m["value"])
        s["ref"].append(statistics.median(record["details"]["host_ref_loop_ms"]))
        s["correct"].append(record["result"]["correct"])
    return sets


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else (0.0 if q3 == q1 else float("inf"))


def report(args):
    bench = spec()
    sets = [load(d) for d in args.dirs]
    failures = []
    listed = [w["name"] for w in bench["workloads"]]
    present = {w for s in sets for w in s}
    for workload in listed + sorted(present - set(listed)):
        if workload not in present:
            continue
        print(f"\n== {workload}")
        for i, s in enumerate(sets):
            if workload in s:
                ref = s[workload]["ref"]
                print(f"  set {i + 1}: {len(ref)} runs, all correct: {all(s[workload]['correct'])}, "
                      f"host reference loop median {statistics.median(ref):.2f} ms (spread {spread(ref):.3f})")
        if len(sets) == 2 and all(workload in s for s in sets):
            host = statistics.median(sets[1][workload]["ref"]) / statistics.median(sets[0][workload]["ref"]) - 1
            print(f"  host moved {100 * host:+.1f}% between the sets")
        print(f"  {'metric':<20} {'bound':>6} " + " ".join(f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}" for i in range(len(sets)))
              + ("  shift" if len(sets) == 2 else ""))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, meds = [], []
            for i, s in enumerate(sets):
                values = s.get(workload, {"metrics": {}})["metrics"].get(name, [])
                if not values:
                    cols.append(f"{'-':>12} {'-':>8}")
                    continue
                med, sp = statistics.median(values), spread(values)
                meds.append(med)
                flag = ""
                if not sp <= bound:
                    flag = "!"
                    failures.append(f"{workload} {name}: spread {sp:.3f} in set {i + 1} exceeds bound {bound}")
                elif sp > bound / 3:
                    flag = "~"
                cols.append(f"{med:>12.5g} {sp:>7.3f}{flag or ' '}")
            line = f"  {name:<20} {bound:>6} " + " ".join(cols)
            if len(meds) == 2:
                worse = (meds[1] / meds[0] - 1) if m["better"] == "lower" else (meds[0] / meds[1] - 1)
                line += f"  {100 * worse:+.1f}% worse" if worse > 0 else f"  {100 * -worse:.1f}% better"
                if worse > bound:
                    failures.append(f"{workload} {name}: median worse by {100 * worse:.1f}% > bound {100 * bound:.0f}%")
            print(line)
    print("\n(! spread over the bound, ~ spread over a third of it)")
    if failures:
        print("\nTOO NOISY / WORSE:\n  " + "\n  ".join(failures))
        return 1
    print("\nsteady: every spread and shift is within its bound")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    p = sub.add_parser("report")
    p.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    if args.mode == "run":
        return run_sets(args)
    if len(args.dirs) > 2:
        parser.error("report takes one or two directories")
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
