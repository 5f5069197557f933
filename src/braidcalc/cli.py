"""Command line interface.

Exit status contract: 0 means the predicate holds or the construction
succeeded, 1 means the predicate is false or the request was refused
(with witnesses in the report), 2 means a usage or resource error.
Every command supports --json, which emits a stable schema
{command, inputs, result, witnesses}.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .braids import BudgetExceededError, Perm, is_pure, same_braid
from .cohen import (
    Braidlike,
    NotCohenError,
    StrandPartition,
    common_face,
    is_brunnian,
    is_cohen,
    is_generalized_cohen,
    unary_factor,
)
from .combing import DEFAULT_COMPONENT_BUDGET, PureAWord, comb
from .expr import NotAWordError, ParseError, format_aword, format_braid, parse, parse_bands
from .finite_models import (
    build_p2_rp2,
    build_p3_s2,
    derive_rp2_face_assignments,
    enumerate_brunnian,
    enumerate_cohen,
    h_element_check,
)
from .lifting import (
    full_lift,
    hopf_decompose,
    james_hopf,
    solve_cohen_system,
    tau_spread,
)

__all__ = ["main", "run"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="braidcalc",
        description="Braid word calculus: faces, Cohen and Brunnian predicates, "
        "combing, liftings, and the face-system solver.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *, n: bool = True, exprs: int = 1,
            extra=None) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        if extra:
            extra(sp)
        if n:
            sp.add_argument("-n", "--strands", type=int, required=True,
                            help="strand count for parsing the expression")
        if exprs == 1:
            sp.add_argument("expr", metavar="EXPR")
        else:
            for k in range(1, exprs + 1):
                sp.add_argument(f"expr{k}", metavar="EXPR")
        sp.add_argument("--json", action="store_true", help="machine readable output")
        return sp

    def ints(*names: str):
        def extra(sp: argparse.ArgumentParser) -> None:
            for name in names:
                sp.add_argument(name, type=int)
        return extra

    add("eq", "are two braid expressions equal", exprs=2)
    add("perm", "underlying permutation of a braid")
    add("pure", "is the braid pure")
    add("del", "delete a strand", extra=ints("index"))
    add("ins", "insert a trivial strand", extra=ints("index"))
    add("cohen", "do all faces agree")
    add("brunnian", "are all faces trivial")
    add("gcohen", "do faces agree within each block",
        extra=lambda sp: sp.add_argument("--blocks", required=True,
                                         help="strand blocks, e.g. '1,2;4,5'"))
    add("unary", "strand 1 crosses to n and its deletion is trivial")
    add("comb", "normal form components of a pure band word",
        extra=lambda sp: sp.add_argument(
            "--budget", type=_positive_int, default=DEFAULT_COMPONENT_BUDGET,
            help="cap in letters on a combed component or band image"))
    add("lift", "one-strand Cohen lift of a Brunnian band word")
    add("tau", "spread a Brunnian band word to rank k", n=False, extra=ints("m", "k"))
    add("bigT", "full Cohen lift from rank m to rank n", n=False, extra=ints("m", "n"))
    add("hopf", "James-Hopf product of coface images", n=False, extra=ints("k", "n"))
    add("decompose", "Brunnian layers of a pure Cohen braid")
    add("solve", "braid on n strands whose every face is the given braid "
        "(EXPR is parsed on n-1 strands)")
    add("rp2", "finite projective-plane model queries", n=False, exprs=0,
        extra=lambda sp: sp.add_argument("verb", choices=["enumerate", "verify"]))
    for name in ("comb", "lift", "tau", "bigT", "hopf", "solve"):
        sub.choices[name].add_argument("--verify", action="store_true",
                                       help="recheck the answer with braid equality")
    return p


# argparse only reads the parser while parsing, so one instance serves every run().
_PARSER = _build_parser()


def _fmt(b: Braidlike) -> str:
    if isinstance(b, PureAWord):
        return format_aword(b)
    return format_braid(b)


def _parse_blocks(spec: str, n: int) -> StrandPartition:
    blocks = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            blocks.append([int(x) for x in chunk.split(",")])
        except ValueError:
            raise ValueError(
                f"--blocks: block {chunk!r} is not a comma-separated list of strands"
            ) from None
    if not blocks:
        raise ValueError(f"--blocks: {spec!r} names no strand")
    return StrandPartition(n, blocks)


def run(argv: list[str]) -> tuple[int, dict[str, Any]]:
    """Execute a command line; returns (exit status, report payload)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return (code if code != 0 else 0), {
            "command": argv[0] if argv else None,
            "inputs": {"argv": argv},
            "result": "usage",
            "witnesses": {},
        }
    payload: dict[str, Any] = {
        "command": args.command,
        "inputs": {},
        "result": None,
        "witnesses": {},
    }
    try:
        code = _dispatch(args, payload)
    except NotCohenError as e:
        i, j = e.witness_indices
        fi, fj = e.witness_faces
        payload["result"] = "refused"
        payload["witnesses"] = {
            "reason": str(e),
            "violating_pair": [i, j],
            "faces": {f"d{i}": _fmt(fi), f"d{j}": _fmt(fj)},
        }
        code = 1
    except BudgetExceededError as e:
        payload["result"] = "resource limit"
        payload["witnesses"] = {
            "reason": str(e), "limit": e.limit, "observed": e.observed, "stage": e.stage,
        }
        code = 2
    except MemoryError:
        # the last resort for an input too large to build: no cap names it
        payload["result"] = "resource limit"
        payload["witnesses"] = {
            "reason": "out of memory", "limit": None, "observed": None,
            "stage": args.command,
        }
        code = 2
    except (ParseError, NotAWordError, ValueError) as e:
        payload["result"] = "error"
        payload["witnesses"] = {"reason": str(e)}
        code = 2
    return code, payload


def _dispatch(args: argparse.Namespace, payload: dict[str, Any]) -> int:
    cmd = args.command
    inputs = payload["inputs"]

    if cmd == "rp2":
        inputs["verb"] = args.verb
        model = build_p2_rp2()
        if args.verb == "enumerate":
            payload["result"] = {
                "cohen": enumerate_cohen(model),
                "brunnian": enumerate_brunnian(model),
            }
            payload["witnesses"] = {
                "model": model.to_json_dict(),
                "sphere_3_strand": build_p3_s2().to_json_dict(),
                "cohen_generator_order": model.order("ru"),
            }
        else:
            survivors = derive_rp2_face_assignments()
            payload["result"] = {
                "surviving_assignments": [list(s) for s in survivors],
                "one_class_up_to_swap": sorted(survivors)
                == sorted([("r", "u"), ("u", "r")]),
            }
            payload["witnesses"] = {
                "h_element": h_element_check(model, "r", "u"),
                "axioms": "verified at construction",
            }
        return 0

    if cmd in ("tau", "bigT", "hopf"):
        ranks = {key: getattr(args, key) for key in ("m", "k", "n") if hasattr(args, key)}
        inputs["expr"] = args.expr
        inputs.update(ranks)
        lo, hi = ranks.values()
        if cmd == "hopf":
            b = parse(args.expr, lo)
            result = james_hopf(lo, hi, b)
        else:
            w = parse_bands(args.expr, lo, "this construction needs a word in the bands")
            result = tau_spread(lo, hi, w) if cmd == "tau" else full_lift(lo, hi, w)
        payload["result"] = _fmt(result)
        if args.verify and cmd == "tau":
            # a spread is never Cohen: d_1 .. d_(k-1) are the spread one rank
            # down and d_k is trivial, and every face is trivial when k = m
            lower = tau_spread(lo, hi - 1, w) if hi > lo else None
            payload["witnesses"]["faces_checked"] = all(
                same_braid(f, lower if lower is not None and i < hi else f.identity(f.strands))
                for i, f in enumerate(result.faces(), start=1)
            )
        elif args.verify:
            payload["witnesses"]["faces_checked"] = is_cohen(result)
        return 0

    n = args.strands
    inputs["n"] = n

    if cmd == "eq":
        inputs["expr"] = [args.expr1, args.expr2]
        equal = same_braid(parse(args.expr1, n), parse(args.expr2, n))
        payload["result"] = equal
        payload["witnesses"]["method"] = "dynnikov"
        return 0 if equal else 1

    inputs["expr"] = args.expr
    if cmd == "perm":
        pm = parse(args.expr, n).perm()
        payload["result"] = list(pm.images)
        if pm.is_identity():
            payload["witnesses"]["class"] = "identity"
        elif pm == Perm.order_reversal(n):
            payload["witnesses"]["class"] = "order-reversal"
        else:
            payload["witnesses"]["class"] = "other"
        return 0

    if cmd == "pure":
        value = is_pure(parse(args.expr, n))
        payload["result"] = value
        return 0 if value else 1

    if cmd in ("del", "ins"):
        inputs["index"] = args.index
        b = parse(args.expr, n)
        out = b.face(args.index) if cmd == "del" else b.coface(args.index)
        payload["result"] = _fmt(out)
        payload["witnesses"]["strands"] = out.strands
        return 0

    if cmd == "cohen":
        b = parse(args.expr, n)
        if not n:  # no faces to compare: vacuously Cohen, no common face
            payload["result"] = True
            return 0
        try:
            shared = common_face(b)
        except NotCohenError as e:
            payload["result"] = False
            payload["witnesses"] = {
                "violating_pair": list(e.witness_indices),
                "faces": {f"d{k}": _fmt(f) for k, f in enumerate(e.faces, start=1)},
            }
            return 1
        payload["result"] = True
        payload["witnesses"]["common_face"] = _fmt(shared)
        return 0

    if cmd == "brunnian":
        b = parse(args.expr, n)
        bad = [
            k
            for k, f in enumerate(b.faces(), start=1)
            if not same_braid(f, f.identity(f.strands))
        ]
        payload["result"] = not bad
        if bad:
            payload["witnesses"]["nontrivial_faces"] = bad
        return 0 if not bad else 1

    if cmd == "gcohen":
        inputs["blocks"] = args.blocks
        partition = _parse_blocks(args.blocks, n)
        value = is_generalized_cohen(parse(args.expr, n), partition)
        payload["result"] = value
        return 0 if value else 1

    if cmd == "unary":
        b = parse(args.expr, n).to_braid()
        try:
            factor = unary_factor(b)
        except ValueError:  # b is not unary
            payload["result"] = False
            return 1
        payload["result"] = True
        payload["witnesses"]["pure_factor"] = format_braid(factor)
        return 0

    if cmd == "comb":
        w = parse_bands(args.expr, n, "comb consumes band words only")
        form = comb(w, component_budget=args.budget)
        if args.verify and not same_braid(form.as_single_word(), w):
            raise AssertionError("combing verification failed: expansion differs")
        payload["result"] = {
            f"u{k}": format_aword(form.component(k)) for k in range(2, n + 1)
        }
        payload["witnesses"]["verified"] = args.verify
        return 0

    if cmd == "lift":
        w = parse_bands(args.expr, n, "lift consumes band words only")
        if not is_brunnian(w):
            payload["result"] = "refused"
            payload["witnesses"]["reason"] = "input is not Brunnian"
            return 1
        out = full_lift(n, n + 1, w, check=False)
        payload["result"] = _fmt(out)
        if args.verify:
            payload["witnesses"]["faces_checked"] = is_cohen(out)
        return 0

    if cmd == "decompose":
        b = parse(args.expr, n)
        if not is_pure(b):
            payload["result"] = "refused"
            payload["witnesses"]["reason"] = "decomposition needs a pure braid"
            return 1
        deltas = hopf_decompose(b)
        payload["result"] = {f"delta{k}": _fmt(d) for k, d in enumerate(deltas, start=1)}
        return 0

    if cmd == "solve":
        if n < 1:
            raise ValueError(f"solve needs n >= 1 strands, got {n}")
        b = parse(args.expr, n - 1)
        out = solve_cohen_system(b, n)
        payload["result"] = _fmt(out)
        if args.verify:
            faces_ok = all(same_braid(f, b) for f in out.faces())
            payload["witnesses"]["faces_equal_input"] = faces_ok
            if not faces_ok:
                raise AssertionError("solver output failed face verification")
        return 0

    raise ValueError(f"unknown command {cmd}")


def _render(payload: dict[str, Any]) -> str:
    lines = [f"{payload['command']}: {_plain(payload['result'])}"]
    for key, value in payload["witnesses"].items():
        lines.append(f"  {key}: {_plain(value)}")
    return "\n".join(lines)


def _plain(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_plain(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    return str(value)


def main() -> None:
    code, payload = run(sys.argv[1:])
    if "--json" in sys.argv[1:]:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_render(payload))
    sys.exit(code)


if __name__ == "__main__":
    main()
