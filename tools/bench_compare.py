#!/usr/bin/env python3
"""Compare this checkout with a parent commit on the end-to-end benchmark.

    python3 tools/bench_compare.py <parent-ref> [--pairs N] [--seconds S]
                                   [--claim METRIC:WORKLOAD ...]

The parent is checked out as a detached git worktree under
.bench_build/compare/, which is removed on exit.  For every workload in
BENCHMARK.json, N pairs of runs go through each tree's own bench_e2e/run.py
(which builds that tree's bench_e2e on first use).  Both runs of pair i use
seed i, and the side that runs first alternates from pair to pair.  The last
line of a run's standard output is its result.  --seconds defaults to
BENCHMARK.json's run_seconds.

judge() applies BENCHMARK.json's `better` and `bound` to every end-to-end
metric of every workload and checks each --claim.  The output has one row per
workload and metric: both medians with their quartiles, the change's wins and
the verdict.  Exit status: 0 when nothing failed, 1 when something did, 2 on a
usage error.
"""
import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = os.path.join(ROOT, ".bench_build", "compare", "parent")
SIDES = ("parent", "change")

# One bench_e2e process: `result` is its parsed result line, or None.
Run = collections.namedtuple("Run", "side workload seed returncode result")


def quartiles(values):
    """q1 and q3 as bench_e2e --summarize takes them: statistics.quantiles(n=4)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_problem(run, metric_names):
    """Why `run` cannot count, or None."""
    if run.returncode != 0:
        return "exit status %d" % run.returncode
    if run.result is None:
        return "no result line"
    if run.side == "change" and run.result.get("correct") is not True:
        return '"correct" is not true'
    values = run.result.get("metrics", {})
    missing = [m for m in metric_names
               if not isinstance(values.get(m, {}).get("value"), (int, float))]
    return "no %s value in its result line" % ", ".join(missing) if missing else None


def judge_metric(metric, parent, change):
    """Rules (a) and (b) for one metric over paired values; returns a row."""
    bound, sign = metric["bound"], 1 if metric["better"] == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    row = {"metric": metric["name"], "pairs": len(parent), "sign": sign,
           "parent": (pm, q1, q3), "change": (cm,) + quartiles(change),
           "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
           "spread": (q3 - q1) / abs(pm) if pm else 0.0}
    worse_by = sign * (pm - cm) / abs(pm) if pm else float(sign * (cm - pm) < 0)
    if row["spread"] > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        row["verdict"] = "unresolved: parent spread %.2f > bound %.2f" % (row["spread"], bound)
    elif worse_by > bound:
        row["verdict"] = "WORSE by %.1f%% > bound %.0f%%" % (100 * worse_by, 100 * bound)
    else:
        row["verdict"] = "level"
    return row


def claim_met(row):
    """Rule (c): 9 of every 10 pairs won, medians apart by more than the parent's q3 - q1."""
    (pm, q1, q3), cm = row["parent"], row["change"][0]
    return 10 * row["wins"] >= 9 * row["pairs"] and row["sign"] * (cm - pm) > q3 - q1


def judge(metrics, workloads, runs, claims=()):
    """Judge parent/change runs by the benchmark's rules; returns (rows, failures).

    `metrics` are BENCHMARK.json's end_to_end entries, `runs` Run records and
    `claims` (metric, workload) pairs.  Shares are of the parent's median.
    (a) A change median worse than the parent's by more than `bound` fails.
    (b) When the parent's spread (q3 - q1) / median exceeds `bound`, the
        metric is unresolved and does not fail; it reads level instead when
        every change run is better than every parent run.
    (c) A claim is met when the change wins at least 9 of every 10 pairs
        (ties count for neither) and the medians differ, in its favour, by
        more than the parent's q3 - q1.
    (d) A run that exits non-zero or prints no result line, a change run that
        is not "correct", and a higher failed/attempted share than the
        parent's each fail.
    """
    names = [m["name"] for m in metrics]
    rows, failures = [], []
    for workload in workloads:
        pairs = collections.defaultdict(dict)
        failed, attempted = dict.fromkeys(SIDES, 0), dict.fromkeys(SIDES, 0)
        for run in runs:
            if run.workload != workload:
                continue
            problem = run_problem(run, names)
            if problem:
                failures.append("%s %s seed %d: %s" % (run.side, workload, run.seed, problem))
                continue
            pairs[run.seed][run.side] = run.result["metrics"]
            failed[run.side] += run.result.get("failed", 0)
            attempted[run.side] += run.result.get("attempted", 0)
        if failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]:
            failures.append("change %s: %d of %d attempted failed, parent %d of %d" % (
                workload, failed["change"], attempted["change"], failed["parent"],
                attempted["parent"]))
        complete = [pairs[seed] for seed in sorted(pairs) if len(pairs[seed]) == 2]
        for m in metrics:
            if not complete:
                rows.append({"workload": workload, "metric": m["name"], "pairs": 0})
                continue
            row = judge_metric(m, [p["parent"][m["name"]]["value"] for p in complete],
                               [p["change"][m["name"]]["value"] for p in complete])
            row.update(workload=workload, unit=complete[0]["change"][m["name"]].get("unit", ""))
            rows.append(row)
            if row["verdict"].startswith("WORSE"):
                failures.append("change %s %s: %s" % (workload, m["name"], row["verdict"]))
    for metric, workload in claims:
        row = next(r for r in rows if r["metric"] == metric and r["workload"] == workload)
        if not row["pairs"]:
            failures.append("claim %s:%s not met: no complete pair" % (metric, workload))
        elif claim_met(row):
            row["verdict"] += "; claim met"
        else:
            row["verdict"] += "; claim NOT MET"
            (pm, q1, q3), cm = row["parent"], row["change"][0]
            failures.append("claim %s:%s not met: %d of %d pairs won, medians %.4g -> %.4g, "
                            "parent q3 - q1 %.4g" % (metric, workload, row["wins"],
                                                     row["pairs"], pm, cm, q3 - q1))
    return rows, failures


def render(rows):
    fmt = "%-12s %-15s %-30s %-30s %5s  %s"
    lines = [fmt % ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
                    "wins", "verdict")]
    for r in rows:
        if not r["pairs"]:
            lines.append(fmt % (r["workload"], r["metric"], "-", "-", "-", "no complete pair"))
            continue
        parent, change = ("%.4g [%.4g, %.4g] %s" % (v + (r["unit"],))
                          for v in (r["parent"], r["change"]))
        lines.append(fmt % (r["workload"], r["metric"], parent, change,
                            "%d/%d" % (r["wins"], r["pairs"]), r["verdict"]))
    return "\n".join(lines)


def run_once(tree, side, workload, seed, seconds):
    """One bench_e2e run through `tree`'s run.py, in its own process group."""
    cmd = [sys.executable, os.path.join(tree, "bench_e2e", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)  # run.py and the bench_e2e it started
        proc.wait()
        raise
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    run = Run(side, workload, seed, proc.returncode, result if isinstance(result, dict) else None)
    print("bench_compare: %s %s seed %d: exit %d" % (side, workload, seed, proc.returncode),
          file=sys.stderr, flush=True)
    return run


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE).stdout.strip()


def remove_worktree():
    if os.path.exists(WORKTREE):
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", WORKTREE],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(WORKTREE, ignore_errors=True)
    git("worktree", "prune")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git ref of the commit to compare with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs and --seconds must be positive")
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    for c in claims:
        if len(c) != 2 or c[0] not in [m["name"] for m in metrics] or c[1] not in workloads:
            ap.error("--claim %s: want METRIC:WORKLOAD with an end-to-end metric and a "
                     "workload of BENCHMARK.json" % ":".join(c))
    try:
        sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    except subprocess.CalledProcessError:
        ap.error("%s is not a commit" % args.parent)

    # SIGTERM (a cancelled CI job) unwinds like Ctrl-C, through the cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("bench_compare: parent %s (%s) against this working tree, %d pairs of %g s per "
          "workload" % (sha[:12], args.parent, args.pairs, args.seconds), flush=True)
    runs = []
    try:
        remove_worktree()  # one a killed run left behind
        git("worktree", "add", "--detach", WORKTREE, sha)
        trees = {"parent": WORKTREE, "change": ROOT}
        for workload in workloads:
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs.append(run_once(trees[side], side, workload, i + 1, args.seconds))
    finally:
        remove_worktree()
    rows, failures = judge(metrics, workloads, runs, claims)
    print(render(rows))
    for f in failures:
        print("FAIL " + f)
    print("bench_compare: %s" % ("%d failed" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
