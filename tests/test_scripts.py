"""The self-checking experiment scripts run to completion.

Each script asserts its own findings, so exit status 0 means they still
hold.  The summary of scripts/bench_pairs.py is checked on fixed runs,
its copy of the change's tree on a small repository, its interleaved
child, with its per-pass p50 and p90 query times and their per-pair
ratios, its one file per seed and summary line, and its alternating
set-up children on small fake trees.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "derive_conj_rules.py",
        "equality_sweep.py",
        "lift_product_experiment.py",
        "tau_order_experiment.py",
    ],
)
def test_script_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_report():
    bench_pairs = load_bench_pairs()

    def result(qps, letters, failed=0):
        return {"correct": True, "attempted": 100, "failed": failed, "metrics": {
            "queries_per_s": {"value": qps, "unit": "1/s"},
            "answer_letters": {"value": letters, "unit": "letters"},
        }}

    end_to_end = [
        {"name": "queries_per_s", "better": "higher"},
        {"name": "answer_letters", "better": "lower"},
    ]
    runs = {
        "parent": [result(q, 10) for q in (10, 20, 30, 40, 50)],
        "change": [result(q, 10, failed=1) for q in (15, 25, 35, 45, 45)],
    }
    report = bench_pairs._report(runs, end_to_end)
    assert report["parent"]["metrics"]["queries_per_s"] == {
        "median": 30, "q1": 20, "q3": 40, "iqr": 20,
    }
    assert report["change"]["metrics"]["queries_per_s"]["median"] == 35
    assert report["change_wins"] == {"queries_per_s": 4, "answer_letters": 0}
    assert report["change"]["failed"] == [1] * 5


def test_bench_pairs_copies_what_git_add_would_commit(tmp_path):
    repo, tree = tmp_path / "repo", tmp_path / "tree"
    files = {
        ".gitignore": "out/\n*.pyc\n",
        "src/kept.py": "committed\n",
        "src/edited.py": "committed\n",
        "src/deleted.py": "committed\n",
    }
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    (repo / "src" / "edited.py").write_text("edited\n")
    (repo / "src" / "deleted.py").unlink()
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "src" / "cache.pyc").write_text("ignored\n")
    (repo / "out").mkdir()
    (repo / "out" / "run.json").write_text("ignored\n")

    load_bench_pairs()._copy_worktree(repo, tree)

    copied = {
        str(p.relative_to(tree)): p.read_text() for p in tree.rglob("*") if p.is_file()
    }
    assert copied == {
        ".gitignore": "out/\n*.pyc\n",
        "src/kept.py": "committed\n",
        "src/edited.py": "edited\n",
        "src/new.py": "untracked\n",
    }


FAKE_RUN = """\
import json
import sys
from pathlib import Path

# logs each call beside the tree; the k-th set-up child of a tree takes k * SETUP_S
tree = Path(__file__).resolve().parent.parent
log = tree.parent / "log"
calls = log.read_text().split("\\n") if log.exists() else []
mode = "setup" if "--child" in sys.argv else "run"
with open(log, "a") as out:
    out.write(f"{tree.name} {mode}\\n")
if mode == "setup":
    print(json.dumps({"setup_s": (calls.count(f"{tree.name} setup") + 1) * SETUP_S}))
else:
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"queries_per_s": {"value": 1.0}}}))
"""


def fake_tree(root, answer, setup_s=0.1):
    """A tree whose braidcalc.cli answers through a sibling module, and
    whose perfbench/run.py is FAKE_RUN with the given set-up time."""
    files = {
        "perfbench/run.py": FAKE_RUN.replace("SETUP_S", repr(setup_s)),
        "src/braidcalc/__init__.py": "",
        "src/braidcalc/cli.py": "from .answer import answer\n\n"
                                "def run(argv):\n    return 0, answer(argv)\n",
        "src/braidcalc/answer.py": f"def answer(argv):\n    return {answer}\n",
        "perfbench/workloads.py": "def build(workload, seed):\n"
                                  "    return [{'argv': [workload, seed, k]} for k in range(3)]\n",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def run_interleaved_child(parent, change):
    cmd = [
        sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--child",
        str(parent), str(change), "0", "--workload", "band-solve", "--seed", "2",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


def test_bench_pairs_interleaved_child(tmp_path):
    parent = fake_tree(tmp_path / "parent", "{'result': argv}")
    same = fake_tree(tmp_path / "same", "{'result': list(argv)}")
    proc = run_interleaved_child(parent, same)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["queries"] == 3
    assert report["pairs"] == load_bench_pairs().MIN_PAIRS
    assert set(report["ratio"]) == {"median", "q1", "q3", "iqr"}
    assert set(report["pass_s"]) == {"parent", "change"}
    for ratio in ("p50_ratio", "p90_ratio"):
        assert set(report[ratio]) == {"median", "q1", "q3", "iqr"}
        assert report[ratio]["median"] > 0
    for stat in ("query_p50_ms", "query_p90_ms"):
        assert set(report[stat]) == {"parent", "change"}
        for side in ("parent", "change"):
            assert set(report[stat][side]) == {"median", "q1", "q3", "iqr"}
            assert report[stat][side]["median"] > 0
    assert all(
        report["query_p50_ms"][side]["median"] <= report["query_p90_ms"][side]["median"]
        for side in ("parent", "change")
    )

    # each tree's relative imports resolve inside its own package
    other = fake_tree(tmp_path / "other", "{'result': argv if argv[2] != 1 else None}")
    proc = run_interleaved_child(parent, other)
    assert proc.returncode != 0
    assert "the change answers ['band-solve', 2, 1] differently" in proc.stderr


def test_bench_pairs_writes_one_file_per_interleaved_seed(tmp_path, monkeypatch, capsys):
    # the parent is the committed fake tree, the change its edited copy
    repo = fake_tree(tmp_path / "repo", "{'result': argv}")
    (repo / "BENCHMARK.json").write_text('{"run_seconds": 0, "end_to_end": []}\n')
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], cwd=repo, check=True)
    fake_tree(repo, "{'result': list(argv)}")

    bench_pairs = load_bench_pairs()
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    argv = ["--pr", "7", "--interleaved", "--workload", "band-solve", "--seed", "1", "--seed", "3"]
    assert bench_pairs.main(argv) == 0
    summaries = [line for line in capsys.readouterr().err.splitlines() if "ratio" in line]
    assert len(summaries) == 2
    assert all(" p50 ratio " in line and " p90 ratio " in line for line in summaries)

    assert sorted(p.name for p in repo.glob("BENCH_*.json")) == [
        "BENCH_7_seed1.json", "BENCH_7_seed3.json",
    ]
    for seed in (1, 3):
        result = json.loads((repo / f"BENCH_7_seed{seed}.json").read_text())
        report = result["workloads"]["band-solve"]
        assert result["interleaved"] is True
        assert report["seed"] == seed
        assert report["pairs"] == bench_pairs.MIN_PAIRS
        for ratio in ("p50_ratio", "p90_ratio"):
            assert set(report[ratio]) == {"median", "q1", "q3", "iqr"}


def test_bench_pairs_times_alternating_setup_children(tmp_path, monkeypatch):
    trees = {
        "parent": fake_tree(tmp_path / "parent", "{'result': argv}", setup_s=0.1),
        "change": fake_tree(tmp_path / "change", "{'result': argv}", setup_s=0.2),
    }
    bench_pairs = load_bench_pairs()
    assert bench_pairs.SETUP_CHILDREN == 16
    n = 4  # fewer children, to keep the test short
    monkeypatch.setattr(bench_pairs, "SETUP_CHILDREN", n)
    end_to_end = [{"name": "queries_per_s", "better": "higher"}]
    report = bench_pairs._pairs(trees, "band-solve", 1, 2, 0, end_to_end)

    calls = (tmp_path / "log").read_text().splitlines()
    assert calls[:4] == ["parent run", "change run", "change run", "parent run"]
    first = ["parent", "change"] * (n // 2)
    assert [c.split()[0] for c in calls[4::2]] == first
    assert [c.split()[0] for c in calls[5::2]] == first[::-1]
    assert all(c.endswith(" setup") for c in calls[4:]) and len(calls) == 4 + 2 * n

    # the k-th child of a side read k * its setup_s, k = 1..4
    for side, unit in (("parent", 0.1), ("change", 0.2)):
        summary = report["setup_children"][side]
        assert summary["median"] == pytest.approx(2.5 * unit)
        assert summary["q1"] == pytest.approx(1.75 * unit)
        assert summary["iqr"] == pytest.approx(1.5 * unit)
    assert report["pairs"] == 2 and report["change_wins"] == {"queries_per_s": 0}


def test_bench_pairs_p90_is_taken_as_the_benchmark_takes_it():
    p90 = load_bench_pairs()._p90
    assert p90([float(k) for k in range(1, 11)]) == pytest.approx(9.1)
    assert p90([4.0, 2.0]) == pytest.approx(3.8)
    assert p90([5.0]) == 5.0


# The --limit 8 digests: the first 8 queries of seeds 1 and 2 of each
# workload.  A change that keeps every payload byte for byte prints the
# same lines; one that changes an answer on purpose records new ones.
PINNED_DIGESTS = [
    "band-solve: 16 queries, sha256 "
    "9fccdf73c93418ecafa4277f178389f75a2c1d1b11b17669d26674471b6b7709",
    "band-comb: 16 queries, sha256 "
    "90f2ae2b10c18dbcb59bfd53bc58b55df5349d4953068f0837f8f7b4d3433d2f",
    "crossing-eq: 16 queries, sha256 "
    "ca9aa500c18c4cf10e0d0c458f03a689d421f545e67720e093552ff228bdd87c",
]


def test_payload_digest_repeats():
    cmd = [sys.executable, str(ROOT / "scripts" / "payload_digest.py"), "--limit", "8"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == PINNED_DIGESTS
