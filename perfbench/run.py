#!/usr/bin/env python3
"""The archex repository benchmark.

One run (run from the repository root; builds the benchmark program on first use):

    python3 perfbench/run.py --workload synth|serve|analyze --seed N \\
        --seconds S --trace 0|1

prints one line per metric and, as its last line, one JSON object with
"correct", "attempted", "failed" and "metrics". --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones (and writes the spans to
.bench_build/traces/).

Tools over many runs:

    python3 perfbench/run.py sweep --out DIR [--workloads synth,serve,analyze]
        [--seeds 1-10] [--seconds 20]
    python3 perfbench/run.py compare PARENT_DIR [CHANGE_DIR]
    python3 perfbench/run.py repeat-check [--seed N] [--seconds S]
    python3 perfbench/run.py goldens

`sweep` stores each run's result line as DIR/<workload>/<seed>.json.
`compare` prints, per workload and end-to-end metric, the median and
quartiles of each side, the fraction of seeds the change wins and a verdict
(improved / no worse / unresolved / worse) under the bounds of
BENCHMARK.json; with one directory it prints that set's spread.
`repeat-check` runs the traced synth and analyze workloads twice on one
seed and fails if a timing-independent counter differs. `goldens`
recomputes perfbench/goldens/ from the library at hand.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "archex_perfbench"
WORKLOADS = ("synth", "serve", "analyze")
# Counters that do not depend on timing: two traced runs of one seed must
# report them identically.
REPEAT_COUNTERS = ("ilp.nodes", "lp.pivots", "lp.factorizations",
                   "mr.iterations", "rel.cache_hits", "rel.cache_misses")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the program up to date (incremental)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no archex sources next to {HERE.name}/; run from a checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        step = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j4", "--target", "archex_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace):
    """Runs the program; returns (stdout lines, parsed result)."""
    (BUILD / "traces").mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--goldens", str(HERE / "goldens"),
           "--trace-dir", str(BUILD / "traces")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the program printed a malformed result line")
    return lines, result


def load_bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_sweep(args):
    build()
    out = Path(args.out)
    for workload in args.workloads.split(","):
        (out / workload).mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            _, result = run_once(workload, seed, args.seconds, 0)
            (out / workload / f"{seed}.json").write_text(
                json.dumps(result) + "\n")
            shown = {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}",
                  flush=True)


def load_set(directory):
    """{workload: {seed: result}} from a sweep directory."""
    out = {}
    for wdir in sorted(Path(directory).iterdir()):
        if wdir.is_dir():
            out[wdir.name] = {int(f.stem): json.loads(f.read_text())
                              for f in wdir.glob("*.json")}
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """Choosing-metrics rules. A gain needs the change to win >= 9/10 of the
    seed pairs and its median to move beyond the parent's quartile spread.
    Otherwise the change is no worse when its median is within the bound; a
    parent spread wider than the bound leaves it unresolved, unless every
    change run beats every parent run. {seed: value} maps in, (wins, word)
    out."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return 0.0, "unresolved (no common seeds)"
    win_frac = sum(better(change[s], parent[s]) for s in seeds) / len(seeds)
    p, c = list(parent.values()), list(change.values())
    pq1, pmed, pq3 = quartiles(p)
    cmed = quartiles(c)[1]
    if win_frac >= 0.9 and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        return win_frac, "improved"
    if all(better(x, y) for x in c for y in p):
        return win_frac, "no worse"
    if (pq3 - pq1) / pmed > metric["bound"]:
        return win_frac, "unresolved"
    worse_by = (cmed - pmed if lower else pmed - cmed) / pmed
    return win_frac, "no worse" if worse_by <= metric["bound"] else "worse"


def cmd_compare(args):
    spec = load_bench_spec()
    metrics = spec["end_to_end"]
    parent = load_set(args.parent)
    change = load_set(args.change) if args.change else None
    for workload, runs in parent.items():
        print(f"== {workload}: {len(runs)} parent runs"
              + (f", {len(change.get(workload, {}))} change runs"
                 if change else ""))
        for m in metrics:
            name = m["name"]
            pvals = {s: r["metrics"][name]["value"] for s, r in runs.items()
                     if name in r["metrics"]}
            if not pvals:
                continue
            q1, med, q3 = quartiles(list(pvals.values()))
            spread = (q3 - q1) / med if med else float("inf")
            line = (f"  {name:<16} parent median {med:.6g} "
                    f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f} "
                    f"(bound {m['bound']})")
            if change is not None:
                cvals = {s: r["metrics"][name]["value"]
                         for s, r in change.get(workload, {}).items()
                         if name in r["metrics"]}
                if cvals:
                    c1, cmed, c3 = quartiles(list(cvals.values()))
                    win_frac, word = verdict(m, pvals, cvals)
                    line += (f" | change median {cmed:.6g} "
                             f"[{c1:.6g}, {c3:.6g}] wins {win_frac:.2f}"
                             f" -> {word}")
            print(line)
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(f"  fail_frac        parent {failed}/{attempted}")
        if change is not None and workload in change:
            cf = sum(r["failed"] for r in change[workload].values())
            ca = sum(r["attempted"] for r in change[workload].values())
            print(f"  fail_frac        change {cf}/{ca}")


def cmd_repeat_check(args):
    build()
    drift = False
    for workload in ("synth", "analyze"):
        first = run_once(workload, args.seed, args.seconds, 1)[1]["metrics"]
        second = run_once(workload, args.seed, args.seconds, 1)[1]["metrics"]
        for name in REPEAT_COUNTERS:
            a, b = first[name]["value"], second[name]["value"]
            status = "ok" if a == b else "DRIFT"
            drift |= a != b
            print(f"{workload} {name}: {a:.17g} / {b:.17g} {status}")
        limits = first["ilp.limit_hits"]["value"]
        print(f"{workload} ilp.limit_hits: {limits:g} "
              f"{'ok' if limits == 0 else 'NONZERO'}")
        drift |= limits != 0
        in_run = first["check.counter_drift"]["value"]
        print(f"{workload} in-run counter drift: {in_run:g}")
    sys.exit(1 if drift else 0)


def cmd_goldens(_args):
    build()
    for workload in ("synth", "analyze"):
        out = HERE / "goldens" / f"{workload}.json"
        step = subprocess.run([str(BINARY), "--make-goldens", workload,
                               "--out", str(out)])
        if step.returncode != 0:
            fail(f"golden generation failed for {workload}")
        print(f"wrote {out}")


def main(argv):
    if argv and argv[0] in ("sweep", "compare", "repeat-check", "goldens"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "sweep":
            parser.add_argument("--out", required=True)
            parser.add_argument("--workloads", default=",".join(WORKLOADS))
            parser.add_argument("--seeds", default="1-10")
            parser.add_argument("--seconds", type=int, default=20)
            cmd_sweep(parser.parse_args(argv[1:]))
        elif argv[0] == "compare":
            parser.add_argument("parent")
            parser.add_argument("change", nargs="?")
            cmd_compare(parser.parse_args(argv[1:]))
        elif argv[0] == "repeat-check":
            parser.add_argument("--seed", type=int, default=1)
            parser.add_argument("--seconds", type=int, default=20)
            cmd_repeat_check(parser.parse_args(argv[1:]))
        else:
            cmd_goldens(parser.parse_args(argv[1:]))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="default: the workload's default_seed in "
                             "perfbench/workloads.json")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        seeds = json.loads((HERE / "workloads.json").read_text())
        args.seed = seeds["workloads"][args.workload]["default_seed"]
    build()
    lines, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    os.chdir(ROOT)
    main(sys.argv[1:])
