"""Benchmark braidcalc through ``cli.run`` on one workload.

    python3 perfbench/run.py --workload band-solve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The parent process starts fresh child
processes: four that only set up (import braidcalc, build the seeded
query list, answer a short warm-up pass) and time it, and one that sets
up the same way and then answers the whole query list, pass after pass,
in one thread with one client, until its timed wall clock reaches
--seconds.  The parent then checks every distinct answer with the
independent checker and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
child wraps braidcalc's layers (see layertrace.py) and the metrics are the
per-layer ones, per pass of the query list.  Exit status is 0 only when
a result was printed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import Checker, parse_bands, parse_crossings, self_test

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("band-solve", "band-comb", "crossing-eq")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # the whole run, children included
MIN_QUERIES = 100
QUERY_CAP_S = 30.0  # per-query wall cap; a query that hits it counts as failed
WARMUP_QUERIES = 6


class QueryTimeout(BaseException):
    """Raised by the alarm inside a query that outran QUERY_CAP_S."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _set_up(workload: str, seed: int):
    """Import braidcalc, build the query list, answer a warm-up pass."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import braidcalc.cli

    import workloads  # builds its inputs with braidcalc

    queries = workloads.build(workload, seed)
    for q in queries[:WARMUP_QUERIES]:
        braidcalc.cli.run(q["argv"])
    return braidcalc.cli, queries, time.perf_counter() - t0


def child_setup(args) -> dict:
    _, _, setup_s = _set_up(args.workload, args.seed)
    return {"setup_s": setup_s}


def child_run(args) -> dict:
    cli, queries, setup_s = _set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    outputs: list[list[str]] = [[] for _ in queries]
    attempts: list[list] = []  # per attempt: [query index, output index or error text]
    latencies: list[float] = []
    pass_walls: list[float] = []
    timed = 0.0
    passes = 0
    while passes == 0 or timed < args.seconds or len(latencies) < MIN_QUERIES:
        pass_start = time.perf_counter()
        for k, q in enumerate(queries):
            signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)
            t0 = time.perf_counter()
            try:
                code, payload = cli.run(q["argv"])
                if payload["result"] == "resource limit":
                    outcome = f"resource limit: {payload['witnesses'].get('reason')}"
                else:
                    outcome = json.dumps([code, payload], sort_keys=True)
            except QueryTimeout:
                outcome = f"timeout after {QUERY_CAP_S} s"
            except Exception as e:  # the benchmark keeps running and counts it
                outcome = f"exception {type(e).__name__}: {e}"
            finally:
                dt = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            latencies.append(dt)
            timed += dt
            if outcome.startswith("["):
                seen = outputs[k]
                if outcome not in seen:
                    seen.append(outcome)
                attempts.append([k, seen.index(outcome)])
            else:
                attempts.append([k, outcome])
        pass_walls.append(time.perf_counter() - pass_start)
        passes += 1
        if tracer is not None:
            tracer.recording = False  # keep the spans of the first pass only
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
    result = {
        "queries": queries,
        "setup_s": setup_s,
        "latencies": latencies,
        "passes": passes,
        "pass_walls": pass_walls,
        "attempts": attempts,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(passes)
    return result


def _spawn(mode: str, args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {mode} failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _answer_letters(query: dict, payload: dict) -> int | None:
    """Letters of a word-valued answer: crossings, or sum of |exponent|."""
    result = payload.get("result")
    n = query["strands"]
    if query["kind"] == "band_comb" and isinstance(result, dict):
        return sum(abs(e) for u in result.values() for _, _, e in parse_bands(u, n))
    if query["kind"] == "band_solve" and query["cohen"]:
        return sum(abs(e) for _, _, e in parse_bands(result, n + 1))
    if query["kind"] == "crossing_solve":
        return len(parse_crossings(result, n + 1))
    return None


def parent(args) -> int:
    if not (ROOT / "src" / "braidcalc" / "__init__.py").is_file():
        print(f"no braidcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    probes = 0 if args.trace else SETUP_PROBES
    setups = [_spawn("setup", args, deadline)["setup_s"] for _ in range(probes)]
    run = _spawn("run", args, deadline)
    setups.append(run["setup_s"])

    queries = run["queries"]
    checker = Checker(args.seed)
    problems = self_test(checker)
    for p in problems:
        print(f"checker self-test: {p}", file=sys.stderr)

    verdicts: list[list[str | None]] = []
    letters: list[int] = []
    for q, seen in zip(queries, run["outputs"]):
        row = []
        for idx, text in enumerate(seen):
            code, payload = json.loads(text)
            row.append(checker.check(q, code, payload))
            if idx == 0 and row[-1] is None:
                count = _answer_letters(q, payload)
                if count is not None:
                    letters.append(count)
        verdicts.append(row)
    failed = 0
    wrong = 0
    reasons: dict[str, int] = {}
    for k, outcome in run["attempts"]:
        reason = verdicts[k][outcome] if isinstance(outcome, int) else outcome
        if reason is not None:
            failed += 1
            wrong += isinstance(outcome, int)
            key = f"{queries[k]['argv'][0]}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
    for key, count in sorted(reasons.items()):
        print(f"failed x{count}: {key[:300]}", file=sys.stderr)

    attempted = len(run["attempts"])
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in run["layers"].items()}
        metrics["trace.pass_s"] = {"value": statistics.median(run["pass_walls"]), "unit": "s"}
    else:
        ms = [1000.0 * x for x in run["latencies"]]
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "queries_per_s": {"value": (attempted - failed) / sum(run["latencies"]), "unit": "1/s"},
            "query_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "query_p90_ms": {"value": deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "answer_letters": {"value": statistics.mean(letters) if letters else 0.0, "unit": "letters"},
        }
    print(f"{args.workload}: attempted {attempted}, failed {failed} over {run['passes']} passes "
          f"of {len(queries)} queries", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "letters" in name:
        return "letters"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        out = child_setup(args) if args.child == "setup" else child_run(args)
        sys.stdout.write(json.dumps(out) + "\n")
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
