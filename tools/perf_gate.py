#!/usr/bin/env python3
"""The perf gate: alternating perfbench pairs of a base revision and the
working tree, judged by perfbench/compare.py.

    python3 tools/perf_gate.py BASE_REV
    python3 tools/perf_gate.py --self-test

Run from a git checkout. BASE_REV is checked out in a temporary git
worktree, and this tree's perfbench/ and BENCHMARK.json are copied over
it, so one benchmark definition measures both src/ trees. Each side
builds into its own CARGO_TARGET_DIR. Then PAIRS untraced pairs of
`perfbench/run.py --workload all --seconds SECONDS` run, both sides on
the same seed, with the side that runs first alternating, and one
traced pair after them.

Exit 1 when compare.py exits non-zero over the two result sets (a
"worse" verdict, or exit 2 when the fingerprints differ), when a run
fails, or when this tree's telemetry tax, stats.self_ns / core.pair_ns
in its traced runs (median over workloads), is above MAX_TAX.
--self-test checks the tax rule and the run plan on synthetic records.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 5  # a same-code metric over its bound separates 1 time in 252
SECONDS = 10
MAX_TAX = 0.30


def run_plan():
    """[(side, seed, trace)] in run order: PAIRS untraced pairs, then one
    traced pair. Pair i runs both sides on seed i + 1; the base goes
    first in even pairs and the head in odd ones."""
    plan = []
    for i in range(PAIRS + 1):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        plan += [(side, i + 1, int(i == PAIRS)) for side in order]
    return plan


def check_tax(records):
    """(passed, report line) for one side's records: the median over its
    traced records of stats.self_ns / core.pair_ns against MAX_TAX. A
    traced record without both metrics, or with no positive pair cost,
    fails."""
    ratios, problems = [], []
    for r in records:
        if r.get("trace") != 1:
            continue
        m = r.get("metrics", {})
        try:
            self_ns = m["stats.self_ns"]["value"]
            pair_ns = m["core.pair_ns"]["value"]
        except (KeyError, TypeError):
            problems.append("%s seed %s lacks stats.self_ns or core.pair_ns"
                            % (r.get("workload"), r.get("seed")))
            continue
        if pair_ns <= 0:
            problems.append("%s seed %s: core.pair_ns is %g"
                            % (r.get("workload"), r.get("seed"), pair_ns))
            continue
        ratios.append(self_ns / pair_ns)
    if problems:
        return False, "telemetry tax: " + "; ".join(problems)
    if not ratios:
        return False, "telemetry tax: no traced record"
    tax = statistics.median(ratios)
    return tax <= MAX_TAX, (
        "telemetry tax %.3f (stats.self_ns / core.pair_ns per workload: %s; bound %.2f)"
        % (tax, " ".join("%.3f" % x for x in ratios), MAX_TAX))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_pair_side(tree, target, seed, trace, results):
    """One `run.py --workload all` of one side; exits on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace), "--results", str(results)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr[-8000:])
        sys.exit("perf gate: %s exited %d in %s" % (" ".join(cmd[1:]), proc.returncode, tree))


def gate(base_rev):
    start = time.monotonic()
    try:
        base_sha = git("rev-parse", "--verify", base_rev + "^{commit}")
    except subprocess.CalledProcessError:
        sys.exit("perf gate: %s is not a revision of %s" % (base_rev, ROOT))
    print("perf gate: base %s, head %s (working tree); %d pairs of %g s, then one traced pair"
          % (base_sha[:12], git("rev-parse", "--short=12", "HEAD"), PAIRS, SECONDS), flush=True)
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        git("worktree", "add", "--detach", str(base_tree), base_sha)
        try:
            shutil.rmtree(base_tree / "perfbench")
            shutil.copytree(ROOT / "perfbench", base_tree / "perfbench")
            shutil.copy2(ROOT / "BENCHMARK.json", base_tree / "BENCHMARK.json")
            sides = {"base": base_tree, "head": ROOT}
            plan = run_plan()
            for n, (side, seed, trace) in enumerate(plan, 1):
                t0 = time.monotonic()
                run_pair_side(sides[side], tmp / (side + "-build"), seed, trace,
                              tmp / (side + ".jsonl"))
                print("[%2d/%d] %s seed %d%s: %.0f s" % (
                    n, len(plan), side, seed, " traced" if trace else "",
                    time.monotonic() - t0), flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_tree)], capture_output=True)
        compared = subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"),
                                   str(tmp / "base.jsonl"), str(tmp / "head.jsonl")])
        tax_ok, tax_line = check_tax(load_records(tmp / "head.jsonl"))
    print("\n" + tax_line)
    print("compare.py exit %d%s" % (compared.returncode, {
        1: " (a worse verdict)", 2: " (fingerprints differ)"}.get(compared.returncode, "")))
    passed = compared.returncode == 0 and tax_ok
    print("perf gate: %s in %.0f s" % ("passed" if passed else "FAILED",
                                       time.monotonic() - start))
    return 0 if passed else 1


# ---- self-test ---------------------------------------------------------------

def traced(workload, self_ns, pair_ns):
    metrics = {}
    if self_ns is not None:
        metrics["stats.self_ns"] = {"value": self_ns, "unit": "ns"}
    if pair_ns is not None:
        metrics["core.pair_ns"] = {"value": pair_ns, "unit": "ns"}
    return {"workload": workload, "seed": PAIRS + 1, "trace": 1, "metrics": metrics}


def self_test():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    untraced = {"workload": "lock-moderate", "seed": 1, "trace": 0, "metrics": {}}
    check(check_tax([untraced, traced("lock-moderate", 3.0, 20.0),
                     traced("kv-zipf", 3.0, 20.0)])[0], "tax 0.15 passes")
    check(not check_tax([traced("lock-moderate", 6.2, 20.0),
                         traced("kv-zipf", 6.2, 20.0)])[0], "tax 0.31 fails")
    for missing in (traced("kv-zipf", None, 20.0), traced("kv-zipf", 3.0, None)):
        check(not check_tax([traced("lock-moderate", 3.0, 20.0), missing])[0],
              "a record missing a tax metric fails")
    check(not check_tax([untraced])[0], "no traced record fails")

    plan = run_plan()
    pairs = [plan[i:i + 2] for i in range(0, len(plan), 2)]
    check(len(pairs) == PAIRS + 1, "PAIRS untraced pairs and one traced pair")
    check(all({a[0], b[0]} == {"base", "head"} for a, b in pairs), "each pair runs both sides")
    check(all(a[1:] == b[1:] for a, b in pairs), "both sides of a pair share seed and trace")
    check(len({a[1] for a, _ in pairs}) == len(pairs), "every pair has its own seed")
    check(all(p[0][0] != q[0][0] for p, q in zip(pairs, pairs[1:])),
          "the side that runs first alternates")
    check([a[2] for a, _ in pairs] == [0] * PAIRS + [1], "only the last pair is traced")

    for f in failures:
        print("FAIL: " + f)
    print("perf_gate.py self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", nargs="?", help="the base revision")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base:
        ap.error("need the base revision")
    return gate(args.base)


if __name__ == "__main__":
    sys.exit(main())
