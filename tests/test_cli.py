"""End-to-end checks of the command line front end.

Most tests drive run() directly and inspect the payload dict; two
subprocess tests confirm the installed console script renders the same
payloads as JSON and as plain lines.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from braidcalc.braids import BraidWord, half_twist
from braidcalc.cli import run
from braidcalc.combing import PureAWord, comb
from braidcalc.expr import format_aword
from braidcalc.lifting import reassemble
from braidcalc.words import GroupWord, a_sym

from conftest import aword, signed_brunnian


def payload_keys(payload):
    return set(payload)


class TestEquality:
    def test_braid_relation_true(self):
        code, payload = run(["eq", "-n", "3", "s1 s2 s1", "s2 s1 s2"])
        assert code == 0
        assert payload["result"] is True
        assert payload["witnesses"]["method"] == "dynnikov"

    def test_distinct_generators_false(self):
        code, payload = run(["eq", "-n", "3", "s1", "s2"])
        assert code == 1
        assert payload["result"] is False

    def test_every_payload_has_schema_keys(self):
        for argv in [
            ["eq", "-n", "3", "e", "e"],
            ["perm", "-n", "3", "s1"],
            ["rp2", "verify"],
            ["del", "-n", "3", "9", "s1"],
        ]:
            _, payload = run(argv)
            assert payload_keys(payload) == {"command", "inputs", "result", "witnesses"}

    def test_budget_exhaustion_is_resource_exit(self):
        code, payload = run(["comb", "-n", "4", "( a1.3 a2.4 )^6", "--budget", "50"])
        assert code == 2
        assert payload["result"] == "resource limit"
        assert "budget" in payload["witnesses"]["reason"]

    def test_budget_refusal_reports_limit_size_and_stage(self):
        code, payload = run(["comb", "-n", "4", "( a1.3 a2.4 )^6", "--budget", "50"])
        assert code == 2
        witnesses = payload["witnesses"]
        assert "budget" in witnesses["reason"]
        assert witnesses["limit"] == 50
        assert witnesses["observed"] > 50
        assert witnesses["stage"] == "u_4 after 9 of 12 syllables"

    def test_long_crossing_word_is_decided(self):
        code, payload = run(["eq", "-n", "3", "( s1 s2' )^24", "e"])
        assert code == 1
        assert payload["result"] is False

    def test_band_word_equality_needs_no_budget(self):
        # the Dynnikov action decides a quotient that comb refuses at --budget 1
        argv = ["-n", "4", "( a1.3 a2.4 )^6", "( a2.4 a1.3 )^6"]
        code, payload = run(["eq", *argv])
        assert code == 1
        assert payload["result"] is False
        assert payload["witnesses"]["method"] == "dynnikov"
        code, payload = run(["comb", "-n", "4", "( a1.3 a2.4 )^6", "--budget", "1"])
        assert code == 2
        assert payload["result"] == "resource limit"

    def test_band_words_whose_quotient_outgrows_combing_are_decided(self):
        # b is the combed form of a with two adjacent syllables swapped;
        # combing a b^-1 passes the default component budget
        a = aword(
            5, [(3, 4, 2), (1, 2, 2), (1, 3, -2), (2, 3, -3), (2, 5, -1), (3, 4, 2)]
        )
        syllables = list(comb(a).as_single_word().word.syllables)
        syllables[10], syllables[11] = syllables[11], syllables[10]
        b = PureAWord(5, GroupWord.from_letters("A5", syllables))
        for pair in ((a, b), (b, a)):
            code, payload = run(["eq", "-n", "5", *map(format_aword, pair)])
            assert code == 1
            assert payload["result"] is False


class TestStructureQueries:
    def test_perm(self):
        code, payload = run(["perm", "-n", "3", "s1 s2"])
        assert code == 0
        assert payload["result"] == [3, 1, 2]

    def test_pure(self):
        code, payload = run(["pure", "-n", "3", "s1^2"])
        assert code == 0 and payload["result"] is True

    def test_delete(self):
        code, payload = run(["del", "-n", "3", "1", "s2 s1^2"])
        assert code == 0
        assert payload["result"] == "s1"
        assert payload["witnesses"]["strands"] == 2

    def test_insert(self):
        code, payload = run(["ins", "-n", "2", "2", "s1"])
        assert code == 0
        assert payload["result"] == "s2 s1 s2'"
        assert payload["witnesses"]["strands"] == 3

    def test_delete_index_out_of_range(self):
        code, payload = run(["del", "-n", "3", "9", "s1"])
        assert code == 2
        assert payload["result"] == "error"
        assert "out of range" in payload["witnesses"]["reason"]

    def test_delete_index_out_of_range_for_every_word_kind(self):
        # the empty band word has no band to reject the index, so the
        # face must check it up front, as strand deletion does
        for index in ("0", "7"):
            for expr in ("e", "a1.2", "s1"):
                code, payload = run(["del", "-n", "3", index, expr])
                assert code == 2, (index, expr)
                assert payload["result"] == "error"
                assert f"strand {index} out of range" in payload["witnesses"]["reason"]


class TestPredicates:
    def test_cohen_accepts_full_twist(self):
        code, payload = run(["cohen", "-n", "3", "D^2"])
        assert code == 0
        assert payload["result"] is True
        assert payload["witnesses"]["common_face"] == "s1^2"

    def test_cohen_refusal_carries_witnesses(self):
        code, payload = run(["cohen", "-n", "3", "s2 s1^2"])
        assert code == 1
        assert payload["result"] is False
        assert payload["witnesses"]["violating_pair"] == [1, 2]
        assert payload["witnesses"]["faces"] == {"d1": "s1", "d2": "s1^2", "d3": "e"}

    def test_brunnian(self):
        code, payload = run(["brunnian", "-n", "3", "[ a1.3 , a2.3 ]"])
        assert code == 0 and payload["result"] is True

    def test_gcohen_blockwise(self):
        code, payload = run(["gcohen", "-n", "4", "--blocks", "1,2;3,4", "D^2"])
        assert code == 0 and payload["result"] is True

    def test_gcohen_rejects_overlapping_blocks(self):
        code, payload = run(["gcohen", "-n", "4", "--blocks", "1,2;2,3", "D^2"])
        assert code == 2
        assert "two blocks" in payload["witnesses"]["reason"]

    def test_gcohen_rejects_a_strand_repeated_in_one_block(self):
        code, payload = run(["gcohen", "-n", "3", "--blocks", "1,1", "s1"])
        assert code == 2
        assert payload["witnesses"]["reason"] == "strand 1 appears twice in one block"

    def test_gcohen_names_a_block_that_is_not_strands(self):
        code, payload = run(["gcohen", "-n", "2", "--blocks", "1,x", "e"])
        assert code == 2 and payload["result"] == "error"
        reason = payload["witnesses"]["reason"]
        assert reason == "--blocks: block '1,x' is not a comma-separated list of strands"

    @pytest.mark.parametrize("spec", ["", ";"])
    def test_gcohen_refuses_blocks_that_name_no_strand(self, spec):
        code, payload = run(["gcohen", "-n", "3", "--blocks", spec, "s1"])
        assert code == 2 and payload["result"] == "error"
        assert payload["witnesses"]["reason"] == f"--blocks: {spec!r} names no strand"

    def test_cohen_on_zero_strands_is_vacuously_true(self):
        # no faces to compare, as for brunnian -n 0, and no common face
        code, payload = run(["cohen", "-n", "0", "e"])
        assert code == 0 and payload["result"] is True
        assert "common_face" not in payload["witnesses"]

    def test_unary_true_with_factor(self):
        code, payload = run(["unary", "-n", "3", "s1 s2"])
        assert code == 0
        assert payload["result"] is True
        # s1 s2 (s1 s2)^-1: the product cancels where the factors meet
        assert payload["witnesses"]["pure_factor"] == "e"

    def test_unary_false(self):
        code, payload = run(["unary", "-n", "3", "s1 s1"])
        assert code == 1 and payload["result"] is False

    def test_unary_on_zero_strands_is_false(self):
        # no strand 1 to carry across, so not unary rather than a crash
        code, payload = run(["unary", "-n", "0", "e"])
        assert code == 1 and payload["result"] is False


class TestNormalForms:
    def test_comb(self):
        code, payload = run(["comb", "-n", "3", "a2.3 a1.2"])
        assert code == 0
        assert payload["result"] == {"u2": "a1.2", "u3": "a1.3 a2.3 a1.3'"}
        assert payload["witnesses"]["verified"] is False

    def test_comb_verified(self):
        _, payload = run(["comb", "-n", "3", "a2.3 a1.2", "--verify"])
        assert payload["witnesses"]["verified"] is True

    def test_comb_refuses_crossing_input(self):
        code, payload = run(["comb", "-n", "3", "s1^2"])
        assert code == 2
        assert "band words only" in payload["witnesses"]["reason"]

    def test_comb_reports_a_syntax_error_before_refusing_crossings(self):
        code, payload = run(["comb", "-n", "3", "( s1^1000 )^1000 s5"])
        assert code == 2
        assert payload["witnesses"]["reason"] == "crossing index 5 out of range for n=3 (at offset 17)"

    def test_decompose(self):
        code, payload = run(["decompose", "-n", "3", "D^2"])
        assert code == 0
        assert payload["result"]["delta1"] == "e"
        assert payload["result"]["delta2"] == "s1^2"

    def test_decompose_refuses_non_pure(self):
        code, payload = run(["decompose", "-n", "3", "s1"])
        assert code == 1
        assert payload["result"] == "refused"


class TestLiftingCommands:
    def test_lift(self):
        code, payload = run(["lift", "-n", "2", "a1.2"])
        assert code == 0
        assert payload["result"] == "a1.2 a2.3 a1.3"

    @pytest.mark.parametrize("argv", [
        ["lift", "-n", "0", "e"],
        ["lift", "-n", "1", "e"],
        ["bigT", "1", "3", "e"],
    ])
    def test_lifts_from_fewer_than_two_strands_answer_e(self, argv):
        code, payload = run(argv)
        assert code == 0 and payload["result"] == "e"

    def test_lift_refuses_non_brunnian(self):
        code, payload = run(["lift", "-n", "3", "a1.2"])
        assert code == 1
        assert payload["witnesses"]["reason"] == "input is not Brunnian"

    def test_tau(self):
        code, payload = run(["tau", "2", "4", "a1.2"])
        assert code == 0
        assert payload["result"] == "a3.4 a2.4 a1.4"

    @pytest.mark.parametrize("m, k, expr", [(2, 4, "a1.2"), (3, 5, "[ a1.3 , a2.3 ]")])
    def test_tau_verify_checks_the_spread_faces(self, m, k, expr):
        # d_1 .. d_(k-1) of a spread are the spread one rank down and d_k
        # is trivial, so the output is not Cohen and is still verified
        code, payload = run(["tau", str(m), str(k), expr, "--verify"])
        assert code == 0
        assert payload["witnesses"]["faces_checked"] is True

    @pytest.mark.parametrize("argv", [
        ["bigT", "2", "4", "a1.2"],
        ["bigT", "3", "5", "[ a1.3 , a2.3 ]"],
        ["hopf", "2", "4", "a1.2"],
        ["hopf", "3", "5", "[ a1.3 , a2.3 ]"],
        ["lift", "-n", "2", "a1.2"],
        ["lift", "-n", "3", "[ a1.3 , a2.3 ]"],
    ])
    def test_cohen_constructions_verify(self, argv):
        code, payload = run([*argv, "--verify"])
        assert code == 0
        assert payload["witnesses"]["faces_checked"] is True

    def test_tau_rank_validation(self):
        code, payload = run(["tau", "4", "3", "a1.2"])
        assert code == 2

    def test_full_lift(self):
        code, payload = run(["bigT", "2", "3", "a1.2"])
        assert code == 0
        assert payload["result"] == "a1.2 a2.3 a1.3"

    def test_hopf(self):
        code, payload = run(["hopf", "2", "4", "a1.2"])
        assert code == 0
        assert payload["result"] == "a3.4 a2.4 a1.4 a2.3 a1.3 a1.2"

    def test_solve(self):
        code, payload = run(["solve", "-n", "3", "a1.2"])
        assert code == 0
        assert payload["result"] == "a2.3 a1.3 a1.2"

    def test_solve_verified(self):
        _, payload = run(["solve", "-n", "3", "a1.2", "--verify"])
        assert payload["witnesses"]["faces_equal_input"] is True

    def test_solve_on_zero_strands_answers_e(self):
        # the one braid on one strand; its face is the 0-strand input
        code, payload = run(["solve", "-n", "1", "--verify", "e"])
        assert code == 0
        assert payload["result"] == "e"
        assert payload["witnesses"]["faces_equal_input"] is True

    def test_solve_needs_a_strand(self):
        code, payload = run(["solve", "-n", "0", "e"])
        assert code == 2
        assert payload["witnesses"]["reason"] == "solve needs n >= 1 strands, got 0"

    def test_solve_refuses_a_kinked_reassembly_with_a_witness(self):
        # A 5-strand Cohen word times A1,2^(+-1): its faces differ in
        # abelianization, so the refusal needs no combing of their quotient.
        for seed in range(1, 5):
            rng = random.Random(seed)
            alpha = reassemble([signed_brunnian(rng, m) for m in range(1, 6)], 5)
            kink = PureAWord(5, GroupWord.single(a_sym(1, 2, 5), rng.choice((1, -1))))
            text = format_aword(alpha * kink)
            code, payload = run(["solve", "-n", "6", "--verify", text])
            assert code == 1
            assert payload["result"] == "refused"
            assert len(payload["witnesses"]["violating_pair"]) == 2


class TestFacesTakenOnce:
    """Each input's faces are taken and compared once per query."""

    @staticmethod
    def counting(monkeypatch, cls, method):
        seen = []
        original = getattr(cls, method)

        def wrapped(self, *args):
            seen.append((self, *args))
            return original(self, *args)

        monkeypatch.setattr(cls, method, wrapped)
        return seen

    def test_nonpure_solve_takes_the_input_faces_only(self, monkeypatch):
        seen = self.counting(monkeypatch, BraidWord, "faces")
        code, payload = run(["solve", "-n", "4", "s1 s2 s1"])
        assert code == 0
        a = BraidWord(3, ((1, 1), (2, 1), (1, 1)))
        # the other calls are the solver's layer checks
        assert seen.count((a,)) == 1
        assert (half_twist(3) * a,) not in seen

    def test_cohen_refusal_takes_the_faces_once(self, monkeypatch):
        seen = self.counting(monkeypatch, PureAWord, "faces")
        code, payload = run(["cohen", "-n", "4", "a1.2"])
        assert code == 1 and payload["result"] is False
        assert payload["witnesses"]["faces"] == {"d1": "e", "d2": "e", "d3": "a1.2", "d4": "a1.2"}
        assert len(seen) == 1

    def test_unary_deletes_strand_one_once(self, monkeypatch):
        seen = self.counting(monkeypatch, BraidWord, "face")
        code, payload = run(["unary", "-n", "3", "s1 s2"])
        assert code == 0 and payload["witnesses"]["pure_factor"] == "e"
        assert [args for _, *args in seen] == [[1]]


class TestFiniteModelCommands:
    def test_enumerate(self):
        code, payload = run(["rp2", "enumerate"])
        assert code == 0
        assert payload["result"]["cohen"] == ["e", "u2", "ru", "ru3"]
        assert payload["result"]["brunnian"] == ["e", "u2"]
        assert payload["witnesses"]["model"]["name"] == "P2(RP2)"

    def test_verify(self):
        code, payload = run(["rp2", "verify"])
        assert code == 0
        assert payload["result"]["surviving_assignments"] == [["r", "u"], ["u", "r"]]
        assert payload["result"]["one_class_up_to_swap"] is True
        assert payload["witnesses"]["h_element"] is True


class TestUsageErrors:
    def test_unknown_command(self):
        code, payload = run(["badcmd"])
        assert code == 2
        assert payload["result"] == "usage"

    def test_missing_argument(self):
        code, payload = run(["eq", "-n", "3", "s1"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["eq", "-n", "3", "s1", "s1"],
        ["perm", "-n", "3", "s1"],
        ["pure", "-n", "3", "s1^2"],
        ["del", "-n", "3", "1", "s1"],
        ["ins", "-n", "2", "2", "s1"],
        ["cohen", "-n", "3", "D^2"],
        ["brunnian", "-n", "3", "[ a1.3 , a2.3 ]"],
        ["gcohen", "-n", "4", "--blocks", "1,2;3,4", "D^2"],
        ["unary", "-n", "3", "s1 s2"],
        ["decompose", "-n", "3", "D^2"],
        ["rp2", "verify"],
    ])
    def test_verify_is_a_usage_error_where_nothing_is_checked(self, argv):
        assert run(argv)[0] == 0
        code, payload = run([*argv, "--verify"])
        assert code == 2
        assert payload["result"] == "usage"

    def test_nonpositive_budget_is_a_usage_error(self):
        for budget in ("0", "-5"):
            code, payload = run(["comb", "-n", "3", "a1.3 a1.2", "--budget", budget])
            assert code == 2
            assert payload["result"] == "usage"

    def test_small_budget_is_honoured(self):
        code, payload = run(["comb", "-n", "3", "a1.3 a1.2", "--budget", "1"])
        assert code == 2
        assert payload["result"] == "resource limit"

    def test_usage_error_leaves_no_state_for_the_next_call(self):
        bad = ["solve", "-n", "3", "--verify", "--budget", "0", "a1.2"]
        good = ["solve", "-n", "3", "a1.2"]
        in_turn = [run(bad), run(good)]
        fresh = []
        for argv in (bad, good):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import json, sys; from braidcalc.cli import run; "
                 "print(json.dumps(run(sys.argv[1:])))", *argv],
                capture_output=True,
                text=True,
            )
            code, payload = json.loads(proc.stdout)
            fresh.append((code, payload))
        assert in_turn == fresh
        assert "faces_equal_input" not in in_turn[1][1]["witnesses"]

    def test_parse_error_carries_offset_message(self):
        code, payload = run(["eq", "-n", "3", "s0", "e"])
        assert code == 2
        assert payload["result"] == "error"
        assert "offset 0" in payload["witnesses"]["reason"]


class TestConsoleScript:
    def test_json_output(self):
        proc = subprocess.run(
            [sys.executable, "-m", "braidcalc.cli", "eq", "-n", "3", "s1 s2 s1", "s2 s1 s2", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["result"] is True

    def test_plain_output_and_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "braidcalc.cli", "cohen", "-n", "3", "s2 s1^2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "false" in proc.stdout


CAP = 400 * 2**20


def run_capped(argv):
    """Run the CLI in a subprocess whose address space is capped at CAP,
    so a regression fails the test instead of taking the machine's memory."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))

    proc = subprocess.run(
        [sys.executable, "-m", "braidcalc.cli", *argv, "--json"],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )
    assert proc.stdout, proc.stderr[-2000:]
    return proc.returncode, json.loads(proc.stdout)


class TestMemoryRefusal:
    """An input too large to build refuses like a cap, not with a traceback."""

    @pytest.mark.parametrize("argv", [
        ["pure", "-n", "4", "( a1.2 a1.3 )^1000000000"],
        ["eq", "-n", "4", "( s1 s2' )^1000000000", "e"],
    ])
    def test_huge_power_is_a_resource_refusal(self, argv):
        code, payload = run_capped(argv)
        assert code == 2
        assert payload["result"] == "resource limit"
        assert payload["witnesses"] == {
            "reason": "out of memory", "limit": None, "observed": None, "stage": argv[0],
        }


class TestWideBraids:
    """Faces of a short word on many strands cost what the word brings.

    A face map holds the bands looked up, not all C(n, 2) bands of P_n,
    which would not fit under the cap at these strand counts.
    """

    @pytest.mark.parametrize("argv, result", [
        (["del", "-n", "3000", "1", "a1.2 a2.3"], "a1.2"),
        (["brunnian", "-n", "600", "a1.2"], False),
    ], ids=["del", "brunnian"])
    def test_answers_under_the_cap(self, argv, result):
        code, payload = run_capped(argv)
        assert payload["result"] == result
        assert code == (0 if result else 1)
