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
per metric, and the correct flags and failed-query counts.  After a
workload's pairs, SETUP_CHILDREN set-up children of perfbench/run.py
(`--child setup`) run on each side, the first side alternating, and the
report holds the median, quartiles and IQR of their set-up times under
setup_children.  A median of ten runs' setup_s can land in either of
two clusters of set-up times on the same code, so a set-up claim should
rest on these.

    python3 scripts/bench_pairs.py --pr N --interleaved --seed 1
    python3 scripts/bench_pairs.py --pr N --interleaved --seed 1 --seed 2 --seed 3

With --interleaved, one child process per workload loads the two trees'
src/braidcalc as the packages bc_parent and bc_change, builds the seeded
queries once with the parent's perfbench/workloads.py, and alternates
whole passes of cli.run over them, the first side swapped each pair,
until each side has run for run_seconds and at least MIN_PAIRS pairs.
Both sides share one interpreter, so a slower or faster machine moves
both passes of a pair alike.  Every pass's payloads must match the other
side's byte for byte, or the run stops with the first query that
differs.  Each query is timed as well, and each pass yields its p50 and
p90 query times, the p90 taken as perfbench/run.py takes it.
BENCH_<label>.json then holds, per workload, the median, quartiles and
IQR of the per-pair ratio of pass times (change over parent), of each
side's pass time, of the per-pair ratios of p50 and of p90 query times
(p50_ratio, p90_ratio) and of each side's per-pass p50 and p90
(query_p50_ms, query_p90_ms), so a latency claim can rest on
interleaved pairs too.  Peak memory, answer
sizes and failed counts cannot be split inside one process, so they come
from the paired runs alone.

--seed may be given more than once, in either mode.  Each seed is run in
turn on the same two trees and written to its own BENCH_<label>_seed<s>.json
as soon as it is done; with a single seed the file is BENCH_<label>.json.
One interleaved run can misread unchanged code by several percent, so a
claim should rest on the agreement of several seeds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("band-solve", "band-comb", "crossing-eq")
MEASURED = ("src", "perfbench")
MIN_PAIRS = 10
SETUP_CHILDREN = 16


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


def _perfbench(tree: Path, workload: str, seed: int, *args: str) -> dict:
    """The JSON line that tree's perfbench/run.py prints last."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), *args,
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} in {tree} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_children(trees: dict[str, Path], workload: str, seed: int) -> dict:
    """Summarise SETUP_CHILDREN set-up times per side, the first side alternating."""
    times: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(SETUP_CHILDREN):
        for side in _pair_order(i):
            child = _perfbench(trees[side], workload, seed, "--child", "setup")
            times[side].append(child["setup_s"])
    return {side: _summary(t) for side, t in times.items()}


def _pair_order(i: int) -> tuple[str, str]:
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def _load_cli(tree: Path, name: str):
    """The cli module of tree's src/braidcalc, imported as package name."""
    init = tree / "src" / "braidcalc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def _alternate_passes(trees: dict[str, Path], workload: str, seed: int, seconds: float) -> dict:
    """Alternate whole passes of both trees in this process, as the module
    docstring describes, and summarise the per-pair ratios."""
    sys.path[:0] = [str(trees["parent"] / "src"), str(trees["parent"] / "perfbench")]
    import workloads  # builds its inputs with the parent's braidcalc

    queries = [q["argv"] for q in workloads.build(workload, seed)]
    runs = {side: _load_cli(tree, f"bc_{side}").run for side, tree in trees.items()}

    def answer(side: str) -> tuple[float, list[float], list]:
        gc.collect()
        run = runs[side]
        latencies, payloads = [], []
        t0 = time.perf_counter()
        for argv in queries:
            start = time.perf_counter()
            payloads.append(run(argv))
            latencies.append(time.perf_counter() - start)
        return time.perf_counter() - t0, latencies, payloads

    expected = [json.dumps(a, sort_keys=True) for a in answer("parent")[2]]
    sides = ("parent", "change")
    times: dict[str, list[float]] = {side: [] for side in sides}
    p50: dict[str, list[float]] = {side: [] for side in sides}
    p90: dict[str, list[float]] = {side: [] for side in sides}
    while len(times["change"]) < MIN_PAIRS or min(map(sum, times.values())) < seconds:
        for side in _pair_order(len(times["change"])):
            elapsed, latencies, payloads = answer(side)
            for argv, want, got in zip(queries, expected, payloads):
                if json.dumps(got, sort_keys=True) != want:
                    raise SystemExit(f"{workload}: the {side} answers {argv} differently")
            times[side].append(elapsed)
            ms = [1000.0 * x for x in latencies]
            p50[side].append(statistics.median(ms))
            p90[side].append(_p90(ms))
    return {
        "pairs": len(times["change"]),
        "queries": len(queries),
        "ratio": _summary([c / p for p, c in zip(times["parent"], times["change"])]),
        "pass_s": {side: _summary(t) for side, t in times.items()},
        "p50_ratio": _summary([c / p for p, c in zip(p50["parent"], p50["change"])]),
        "p90_ratio": _summary([c / p for p, c in zip(p90["parent"], p90["change"])]),
        "query_p50_ms": {side: _summary(v) for side, v in p50.items()},
        "query_p90_ms": {side: _summary(v) for side, v in p90.items()},
    }


def _p90(ms: list[float]) -> float:
    """The 90th percentile of one pass's query times, as perfbench/run.py takes it."""
    if len(ms) < 2:
        return ms[0]
    return statistics.quantiles(ms, n=10, method="inclusive")[8]


def _spawn_alternating(trees: dict[str, Path], workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        str(trees["parent"]), str(trees["change"]), str(seconds),
        "--workload", workload, "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"interleaved {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout)


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


def _pairs(
    trees: dict[str, Path], workload: str, seed: int, pairs: int, seconds: float,
    end_to_end: list[dict],
) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    args = ("--seconds", str(seconds), "--trace", "0")
    for i in range(pairs):
        for side in _pair_order(i):
            runs[side].append(_perfbench(trees[side], workload, seed, *args))
        print(f"{workload} pair {i + 1}/{pairs}: queries_per_s "
              f"{runs['parent'][-1]['metrics']['queries_per_s']['value']:.1f} -> "
              f"{runs['change'][-1]['metrics']['queries_per_s']['value']:.1f}",
              file=sys.stderr)
    setup = _setup_children(trees, workload, seed)
    print(f"{workload} set-up children: setup_s {setup['parent']['median']:.4f} -> "
          f"{setup['change']['median']:.4f}", file=sys.stderr)
    return {"pairs": pairs, **_report(runs, end_to_end), "setup_children": setup}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", help="label of the change; the output is BENCH_<label>.json")
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several; default all three")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, action="append",
                    help="repeat for several, one BENCH file each; default 1")
    ap.add_argument("--interleaved", action="store_true",
                    help="alternate passes of both trees in one process per workload")
    ap.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = args.seed or [1]
    if args.child:
        parent, change, seconds = args.child
        trees = {"parent": Path(parent), "change": Path(change)}
        print(json.dumps(_alternate_passes(trees, args.workload[0], seeds[0], float(seconds))))
        return 0
    if args.pr is None:
        ap.error("the following arguments are required: --pr")

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

        for seed in seeds:
            result: dict = {"seconds": seconds, "interleaved": args.interleaved, "workloads": {}}
            for workload in args.workload or WORKLOADS:
                if args.interleaved:
                    report = _spawn_alternating(trees, workload, seed, seconds)
                    print(f"{workload} seed {seed}: pass time ratio "
                          f"{report['ratio']['median']:.3f} "
                          f"[IQR {report['ratio']['iqr']:.3f}], p50 ratio "
                          f"{report['p50_ratio']['median']:.3f} "
                          f"[IQR {report['p50_ratio']['iqr']:.3f}], p90 ratio "
                          f"{report['p90_ratio']['median']:.3f} "
                          f"[IQR {report['p90_ratio']['iqr']:.3f}] over {report['pairs']} pairs",
                          file=sys.stderr)
                else:
                    report = _pairs(trees, workload, seed, args.pairs, seconds,
                                    bench["end_to_end"])
                result["workloads"][workload] = {
                    "seed": seed,
                    "parent_commit": parent_commit,
                    "change_diff_sha256": change_diff,
                    **report,
                }
            label = args.pr if len(seeds) == 1 else f"{args.pr}_seed{seed}"
            out = ROOT / f"BENCH_{label}.json"
            out.write_text(json.dumps(result, indent=1) + "\n")
            print(f"wrote {out}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
