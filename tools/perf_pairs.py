#!/usr/bin/env python3
"""Compare a parent revision with the working tree on one perfbench workload.

Usage:
    tools/perf_pairs.py --parent <rev> --workload <name> [--pairs 10]
                        [--seed0 1]

Exports <rev> with `git archive` into .bench_build/parent-<sha>/ (reused
when already there, so its perfbench build stays warm), then runs
BENCHMARK.json's command (perfbench/run.py) with --trace 0 for its
run_seconds, alternately in the parent export and in the working tree:
pair i uses seed seed0 + i, and which side runs first swaps on every
pair, so a drift in host speed hits both sides alike. One run at a
time; a concurrent build or test skews both sides.

For every end-to-end metric in BENCHMARK.json it prints each side's
median [q1, q3], parent / change and the pairs the change won. Exit
status:
    0  no run failed a script and no change median is worse than the
       parent's by more than the metric's bound
    1  some run reported failed > 0, or a change median is worse than the
       parent's by more than its bound
    2  a run produced no result (build, self-test or harness failure)
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    pos = p * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def parse_result(stdout: str) -> dict | None:
    """The benchmark's result: the last line of its standard output."""
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def better(a: float, b: float, direction: str) -> bool:
    """True when `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def worse_beyond_bound(change: float, parent: float, direction: str,
                       bound: float) -> bool:
    """True when the change median is worse than the parent's by more than
    `bound`, a fraction of the parent's value."""
    if direction == "lower":
        return change > parent * (1 + bound)
    return change < parent * (1 - bound)


def verdict(spec: list[dict], pairs: list[tuple[dict, dict]]
            ) -> tuple[list[str], bool]:
    """Summarise (parent, change) result pairs against the BENCHMARK.json
    end-to-end metric spec. Returns the report lines and whether the
    change passes: no failed scripts on either side, and no change median
    worse than the parent's by more than its bound."""
    def spread(xs: list[float]) -> str:
        return (f"{quantile(xs, 0.5):.4g} "
                f"[{quantile(xs, 0.25):.4g}, {quantile(xs, 0.75):.4g}]")

    lines = [f"{'metric':<18} {'parent median [q1, q3]':>34} "
             f"{'change median [q1, q3]':>34} {'parent/change':>13} "
             f"{'wins':>6}  verdict"]
    ok = True
    for m in spec:
        name, direction, bound = m["name"], m["better"], float(m["bound"])
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(better(c, p, direction) for p, c in zip(par, chg))
        pm, cm = quantile(par, 0.5), quantile(chg, 0.5)
        ratio = f"{pm / cm:.3f}" if cm else "inf"
        bad = worse_beyond_bound(cm, pm, direction, bound)
        ok = ok and not bad
        status = f"WORSE beyond bound {bound:g}" if bad else "ok"
        lines.append(f"{name:<18} {spread(par):>34} {spread(chg):>34} "
                     f"{ratio:>13} {wins:>3}/{len(pairs):<2}  {status}")
    failed_parent = sum(p.get("failed", 0) for p, _ in pairs)
    failed_change = sum(c.get("failed", 0) for _, c in pairs)
    lines.append(f"failed scripts: parent {failed_parent}, "
                 f"change {failed_change}")
    if failed_parent or failed_change:
        ok = False
    lines.append("verdict: " + ("OK" if ok else "FAIL"))
    return lines, ok


def export_parent(rev: str) -> str:
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, text=True,
                         capture_output=True).stdout.strip()
    dest = os.path.join(ROOT, ".bench_build", "parent-" + sha)
    marker = os.path.join(dest, ".exported")
    if not os.path.isfile(marker):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("perf_pairs: git archive failed for " + sha)
        open(marker, "w", encoding="utf-8").close()
    return dest


def run_side(bench: dict, tree: str, workload: str, seed: int) -> dict:
    """One end-to-end run of BENCHMARK.json's command inside `tree`."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE)
    result = parse_result(proc.stdout)
    if result is None:
        print(f"perf_pairs: no result from the run in {tree} "
              f"(exit {proc.returncode})", file=sys.stderr)
        sys.exit(2)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r} (one of {names})")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    parent_tree = export_parent(args.parent)
    sides = {"parent": parent_tree, "change": ROOT}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            got[side] = run_side(bench, sides[side], args.workload, seed)
            print(f"pair {i + 1} seed {seed} {side}: {json.dumps(got[side])}",
                  flush=True)
        pairs.append((got["parent"], got["change"]))

    print(f"perf_pairs: {args.workload}, {args.pairs} pairs, seeds "
          f"{args.seed0}-{args.seed0 + args.pairs - 1}, parent {args.parent} "
          "vs working tree")
    lines, ok = verdict(bench["end_to_end"], pairs)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
