#!/usr/bin/env python3
"""Digest every cli.run payload of the benchmark workloads.

    python3 scripts/payload_digest.py
    python3 scripts/payload_digest.py --root ../parent-checkout
    python3 scripts/payload_digest.py --limit 20

Builds the queries of each workload with perfbench/workloads.py, answers
them in this process with braidcalc.cli.run, and prints one line per
workload: the number of queries and the SHA-256 of their
[exit status, payload] pairs, written as sorted-key JSON one per line in
query order, seed after seed.  It covers the three workloads on seeds 1
and 2.  Two trees that print the same lines answered every query byte
for byte alike.

--root names the tree whose src/ and perfbench/ are used, by default
this one, so the same script digests a second checkout as well.
perfbench/ is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

WORKLOADS = ("band-solve", "band-comb", "crossing-eq")
SEEDS = (1, 2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="tree holding src/ and perfbench/ (default: this one)")
    ap.add_argument("--limit", type=int, default=None,
                    help="answer only the first LIMIT queries of each seed")
    args = ap.parse_args()

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from braidcalc import cli

    for workload in WORKLOADS:
        digest = hashlib.sha256()
        count = 0
        for seed in SEEDS:
            for q in workloads.build(workload, seed)[:args.limit]:
                code, payload = cli.run(q["argv"])
                digest.update(json.dumps([code, payload], sort_keys=True).encode() + b"\n")
                count += 1
        print(f"{workload}: {count} queries, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
