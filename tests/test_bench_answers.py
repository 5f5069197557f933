"""Every benchmark query of seeds 1 and 2 is answered correctly.

Builds the queries of each workload with perfbench/workloads.py, answers
them in this process with braidcalc.cli.run and judges each answer with
perfbench/checker.py, which does not import braidcalc.  The payload
digests of tests/test_scripts.py pin the answers byte for byte; this
pins their correctness, so it still holds when an answer changes on
purpose.  perfbench/ is imported by path and only read.
"""

import importlib
import json
from pathlib import Path

import pytest

from braidcalc import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# the seeds of scripts/payload_digest.py
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["band-solve", "band-comb", "crossing-eq"])
def test_answers_pass_the_checker(workload, seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checker = importlib.import_module("checker").Checker(seed)
    queries = workloads.build(workload, seed)
    wrong = []
    for k, q in enumerate(queries):
        # the benchmark judges the report as it reads back from JSON
        code, payload = json.loads(json.dumps(cli.run(q["argv"])))
        reason = checker.check(q, code, payload)
        if reason is not None:
            wrong.append(f"query {k} ({' '.join(q['argv'][:3])}): {reason}")
    assert queries and not wrong, wrong
