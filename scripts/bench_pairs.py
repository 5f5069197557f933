#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs.

    python3 scripts/bench_pairs.py --pr N --pairs 10 --seed 1
    python3 scripts/bench_pairs.py --pr N --workload band-solve --pairs 3

The parent commit (--parent, default HEAD) is unpacked with `git archive`
into a temporary directory, so it holds the committed files only, as a
fresh checkout would.  The change is copied into a second temporary
directory: the tracked files as they stand in this working tree, and the
untracked files that are not ignored, which is what `git add -A` would
commit.  So both sides run from a fresh tree without bytecode caches or
run output, and neither side has a start the other lacks.  For each
workload, perfbench/run.py runs --pairs times on each side, in pairs
whose first run alternates between parent and change, with the same seed
on both sides and the run length set by run_seconds in BENCHMARK.json.

The change is identified by the SHA-256 of `git diff --full-index
<parent> -- src perfbench`, the code the benchmark runs (tracked files
only), so that `git diff --full-index <parent> <change> -- src perfbench
| sha256sum` matches it once the change is committed.

Writes BENCH_<label>.json in the repository root: per workload, the seed,
the parent commit and the change's diff hash, the number of pairs, every
run's metrics, the median, quartiles and IQR of each end-to-end metric
named in BENCHMARK.json for each side, the number of pairs the change won
per metric, and the correct flags and failed-query counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("band-solve", "band-comb", "crossing-eq")
MEASURED = ("src", "perfbench")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _diff_sha256(parent: str) -> str:
    diff = subprocess.run(
        ["git", "diff", "--no-color", "--no-ext-diff", "--full-index",
         parent, "--", *MEASURED],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    return hashlib.sha256(diff).hexdigest()


def _unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _copy_worktree(root: Path, into: Path) -> None:
    """Copy the tracked and the untracked, not ignored files of root."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if not source.is_file():  # tracked, but deleted in the working tree
            continue
        target = into / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} in {tree} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _report(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    out: dict = {}
    for side, results in runs.items():
        out[side] = {
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "metrics": {
                m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in results])
                for m in end_to_end
            },
            "runs": [
                {name: v["value"] for name, v in r["metrics"].items()} for r in results
            ],
        }
    wins = {}
    for m in end_to_end:
        sign = 1 if m["better"] == "higher" else -1
        wins[m["name"]] = sum(
            sign * (c["metrics"][m["name"]]["value"] - p["metrics"][m["name"]]["value"]) > 0
            for p, c in zip(runs["parent"], runs["change"])
        )
    out["change_wins"] = wins
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="label of the change; the output is BENCH_<label>.json")
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several; default all three")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_commit = _git("rev-parse", args.parent)
    change_diff = _diff_sha256(parent_commit)

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        trees["parent"].mkdir()
        _unpack(args.parent, trees["parent"])
        _copy_worktree(ROOT, trees["change"])

        result: dict = {"seconds": seconds, "workloads": {}}
        for workload in args.workload or WORKLOADS:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(_run(trees[side], workload, args.seed, seconds))
                print(f"{workload} pair {i + 1}/{args.pairs}: queries_per_s "
                      f"{runs['parent'][-1]['metrics']['queries_per_s']['value']:.1f} -> "
                      f"{runs['change'][-1]['metrics']['queries_per_s']['value']:.1f}",
                      file=sys.stderr)
            result["workloads"][workload] = {
                "seed": args.seed,
                "parent_commit": parent_commit,
                "change_diff_sha256": change_diff,
                "pairs": args.pairs,
                **_report(runs, bench["end_to_end"]),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
