#!/usr/bin/env python3
"""Alternating-pair A/B runs of the repository benchmark.

Builds the benchmark at a base revision and in the working tree, then runs
N pairs per workload, each pair on one seed, with the side that goes first
flipping from pair to pair. Every run uses the benchmark's own command line
from BENCHMARK.json. For each end-to-end metric it prints the median and
quartiles of both sides, the per-pair win/tie/loss count of the change,
whether the median gap exceeds the base's interquartile range, and the
verdict against the metric's BENCHMARK.json bound. A metric whose base
runs spread wider than its bound is reported as unresolved, unless every
change run reads better than every base run.

With --trace-seconds S, each workload's pairs are followed by one traced
run per side (`--trace 1`, S seconds, the first pair's seed), the side that
goes first flipping from workload to workload; every per-layer metric of
BENCHMARK.json that either side reports as nonzero is printed as
base / change / delta.

Usage (from anywhere inside the repository):

    tools/ab_bench.py --pairs 10 --seed-start 11
    tools/ab_bench.py --base HEAD~1 --workloads rerank --seconds 25
    tools/ab_bench.py --workloads rerank --pairs 3 --trace-seconds 10

The base is checked out with `git worktree add --detach` into a fresh
directory under --workdir (default: the system temp dir) and removed
afterwards; --base-dir points at an existing tree of the base instead (a
git checkout, or an export such as `git archive`, whose revision is then
printed as "not a git checkout").
Everything builds offline: the workspace's third-party crates are vendored.
Only the Python standard library is used.

Exit status: 0 when every run passed its correctness checks and no metric
moved the wrong way beyond its bound, 1 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def short_head(checkout):
    """The checkout's abbreviated HEAD, or a note when it is not a git checkout."""
    try:
        return git(checkout, "rev-parse", "--short", "HEAD")
    except subprocess.CalledProcessError:
        return "not a git checkout"


def build(checkout, command):
    """Builds the benchmark binary so that no run pays for compilation."""
    build_cmd = [a if a != "run" else "build" for a in command[: command.index("--")]]
    print(f"building in {checkout} ...", file=sys.stderr, flush=True)
    subprocess.run(build_cmd, cwd=checkout, check=True)


def run_once(checkout, command, workload, seed, seconds, trace=0):
    """One benchmark run; returns (correct, failed, {metric: value})."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(
        [*command, *args, "--trace", str(trace)], cwd=checkout, capture_output=True, text=True
    )
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"no result line from {checkout} ({workload}, seed {seed})")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return bool(result["correct"]) and proc.returncode == 0, result["failed"], values


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "n/a"
    return f"{x:.6g}"


def summarize(workload, pairs, metrics):
    """Prints one workload's table; returns True if a metric regressed."""
    regressed = False
    runs = []
    n = len(pairs)
    header = (
        f"{'metric':<15} {'base median [Q1-Q3]':<34} {'change median [Q1-Q3]':<34}"
        f" {'delta':>9} {'W-T-L':>8} {'gap>IQR':>7}  verdict"
    )
    print(header)
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        base = [p[0][name] for p in pairs if p[0].get(name) is not None]
        chg = [p[1][name] for p in pairs if p[1].get(name) is not None]
        if len(base) != n or len(chg) != n:
            print(f"{name:<15} missing values")
            continue
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(chg)
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for b, c in zip(base, chg) if sign * (c - b) > 0)
        ties = sum(1 for b, c in zip(base, chg) if c == b)
        if bmed != 0:
            rel = (cmed - bmed) / abs(bmed)
        else:
            rel = 0.0 if cmed == 0 else math.copysign(math.inf, cmed)
        gain = sign * rel
        spread = (bq3 - bq1) / abs(bmed) if bmed != 0 else 0.0
        separated = min(sign * c for c in chg) > max(sign * b for b in base)
        if spread > bound and not separated:
            verdict = f"unresolved: base IQR {spread:.0%} of median > bound {bound:g}"
        elif gain < -bound:
            verdict = f"WORSE beyond bound {bound:g}"
            regressed = True
        elif gain > bound:
            verdict = f"better beyond bound {bound:g}"
        else:
            verdict = f"within bound {bound:g}"
        gap = "yes" if abs(cmed - bmed) > (bq3 - bq1) else "no"
        print(
            f"{name:<15} {fmt(bmed) + ' [' + fmt(bq1) + '-' + fmt(bq3) + ']':<34}"
            f" {fmt(cmed) + ' [' + fmt(cq1) + '-' + fmt(cq3) + ']':<34}"
            f" {rel * 100:>+8.1f}% {f'{wins}-{ties}-{n - wins - ties}':>8} {gap:>7}  {verdict}"
        )
        runs.append(f"  {name}: base {' '.join(map(fmt, base))} | change {' '.join(map(fmt, chg))}")
    print("runs, in seed order:", *runs, sep="\n")
    return regressed


def summarize_trace(base, change, per_layer):
    """Prints one workload's traced per-layer metrics as base / change / delta."""
    print(f"{'per-layer metric':<28} {'base':>12} {'change':>12} {'delta':>9}")
    zero = 0
    for m in per_layer:
        name = m["name"]
        b, c = base.get(name), change.get(name)
        if not b and not c:
            zero += 1
            continue
        delta = f"{(c - b) / abs(b) * 100:+.1f}%" if b and c is not None else "n/a"
        print(f"{name:<28} {fmt(b):>12} {fmt(c):>12} {delta:>9} {m['unit']}")
    if zero:
        print(f"({zero} per-layer metrics are zero or absent on both sides)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="base revision (default: HEAD)")
    ap.add_argument("--base-dir", help="existing checkout of the base; skips the worktree")
    ap.add_argument("--workdir", default=tempfile.gettempdir(), help="where the base worktree goes")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    ap.add_argument("--seed-start", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, help="seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument(
        "--trace-seconds",
        type=float,
        help="after the pairs, one traced run of this length per side per workload (default: off)",
    )
    args = ap.parse_args()

    repo = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]

    worktree = None
    if args.base_dir:
        base_dir = Path(args.base_dir).resolve()
    else:
        rev = git(repo, "rev-parse", "--verify", args.base + "^{commit}")
        base_dir = Path(tempfile.mkdtemp(prefix="ab-base-", dir=args.workdir)) / "tree"
        git(repo, "worktree", "add", "--detach", str(base_dir), rev)
        worktree = base_dir
    sides = {"base": base_dir, "change": repo}
    print(f"base:   {base_dir} ({short_head(base_dir)})")
    print(f"change: {repo} (working tree of {git(repo, 'rev-parse', '--short', 'HEAD')})")

    bad = False
    try:
        for checkout in sides.values():
            build(checkout, command)
        for w, workload in enumerate(workloads):
            seeds = range(args.seed_start, args.seed_start + args.pairs)
            print(f"\n== {workload}: {args.pairs} pairs x {seconds:g} s, seeds {seeds[0]}..{seeds[-1]}")
            pairs = []
            for i, seed in enumerate(seeds):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                out = {}
                for side in order:
                    ok, failed, values = run_once(sides[side], command, workload, seed, seconds)
                    if not ok or failed:
                        print(f"   {side} seed {seed}: correct={ok} failed={failed}")
                        bad = True
                    out[side] = values
                pairs.append((out["base"], out["change"]))
                print(f"   pair {i + 1}/{args.pairs} done ({' first, '.join(order)} second)", flush=True)
            bad |= summarize(workload, pairs, bench["end_to_end"])
            if args.trace_seconds:
                order = ["base", "change"] if w % 2 == 0 else ["change", "base"]
                print(
                    f"\n-- {workload}: traced runs, {args.trace_seconds:g} s, seed {args.seed_start}"
                    f" ({' first, '.join(order)} second)"
                )
                traced = {}
                for side in order:
                    ok, failed, traced[side] = run_once(
                        sides[side], command, workload, args.seed_start, args.trace_seconds, trace=1
                    )
                    if not ok or failed:
                        print(f"   {side} traced: correct={ok} failed={failed}")
                        bad = True
                summarize_trace(traced["base"], traced["change"], bench["per_layer"])
    finally:
        if worktree is not None:
            git(repo, "worktree", "remove", "--force", str(worktree))
            os.rmdir(worktree.parent)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
