"""Command-line front end.

Parses root-system and subset descriptions, dispatches the library
computations, and prints either human-readable text or a JSON document
with exact rational coefficients.  All output is deterministic: identical
invocations produce byte-identical bytes.  deform and verify hand their
literal a:b intervals to the library as (a, b) pairs, and
deform.check_intervals holds the rule for each variant's intervals.

Exit codes: 0 success, 2 validation error (argparse shares this code),
3 resource cap exceeded, 4 internal inconsistency detected, 141 standard
output closed by its reader before the answer was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from weylq.charquasi import char_quasi_subset
from weylq.compat import is_compatible, verify_genfunc
from weylq.deform import (
    check_intervals,
    cqp_type1_formula,
    cqp_type2_formula,
    type1_spec,
    type2_spec,
    verify_deform,
)
from weylq.ehrhart import ehrhart_closed_qp, ehrhart_open_qp
from weylq.errors import InconsistencyError, ResourceCapError, ValidationError
from weylq.eulerian import eulerian_poly, m_poly
from weylq.quasipoly import QuasiPolynomial, RationalPolynomial
from weylq.rootsys import (
    RootSubset,
    RootSystem,
    build_root_system,
    enumerate_ideals,
    height,
    lower_closure,
    subset_from_roots,
)

Vector = Tuple[int, ...]

# A compat sweep translates one descent lane per ideal, (rank + 1) bytes
# per group element.  The bound admits B7 and C7 (1.77e10 bytes) and A8
# (1.59e10), and refuses E7's 4,160 ideals (9.66e10), which would take
# minutes, and everything larger.
MAX_SWEEP_BYTES = 1 << 35

# Listing the ideals walks the root poset once per ideal and root and
# prints up to N roots per ideal, so the listing is bounded by ideals times
# positive roots.  The bound admits E8 (25,080 ideals, 3.0e6, 6.9 s) and A10
# (58,786, 3.2e6, 5.9 s), and refuses A11 (208,012, 1.4e7, 29 s at 1.1 GiB),
# B10, C10, D10 and everything larger.
MAX_IDEAL_LISTING = 1 << 22


# ---------------------------------------------------------------------------
# exact-rational JSON encoding


def rational_str(x: Fraction) -> str:
    """Exact string form: "n" when integral, else "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def poly_to_json(p: RationalPolynomial) -> dict:
    return {
        "variable": "t",
        "coeffs_ascending": [rational_str(c) for c in p.coeffs],
    }


def qp_to_json(qp: QuasiPolynomial) -> dict:
    """Schema: period, degree, constituents with residues 1..period in order."""
    return {
        "period": qp.period,
        "degree": qp.degree,
        "constituents": [
            {
                "residue": k,
                "coeffs_ascending": [
                    rational_str(c) for c in qp.constituents[k - 1].coeffs
                ],
            }
            for k in range(1, qp.period + 1)
        ],
    }


# ---------------------------------------------------------------------------
# subset expressions


def _split_top(text: str, sep: str) -> List[str]:
    """Split on sep outside parentheses, so tuples stay whole."""
    out: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValidationError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValidationError(f"unbalanced parentheses in {text!r}")
    out.append("".join(cur))
    return out


def _parse_vector(rs: RootSystem, text: str) -> Vector:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValidationError(f"expected a coefficient tuple like (1,0), got {s!r}")
    body = s[1:-1]
    try:
        vec = tuple(int(tok) for tok in body.split(","))
    except ValueError:
        raise ValidationError(f"coefficient tuple {s!r} has non-integer entries")
    if len(vec) != rs.rank:
        raise ValidationError(
            f"coefficient tuple {s!r} has {len(vec)} entries; rank is {rs.rank}"
        )
    return vec


def parse_subset(rs: RootSystem, expr: str) -> RootSubset:
    """Resolve a subset expression to sorted root indices.

    Accepted forms: "full", "empty", "minus:(tuple)" for the positive
    system without one root, "ideal:(tuple);(tuple)" for the lower closure
    of the listed generators, or an explicit comma-separated tuple list.
    """
    s = expr.strip()
    if not s:
        raise ValidationError("empty subset expression")
    if s == "full":
        return tuple(range(len(rs.positive_roots)))
    if s == "empty":
        return ()
    if s.startswith("minus:"):
        vec = _parse_vector(rs, s[len("minus:") :])
        (idx,) = subset_from_roots(rs, [vec])
        return tuple(i for i in range(len(rs.positive_roots)) if i != idx)
    if s.startswith("ideal:"):
        body = s[len("ideal:") :]
        gens = [_parse_vector(rs, part) for part in _split_top(body, ";")]
        return lower_closure(rs, subset_from_roots(rs, gens))
    vecs = [_parse_vector(rs, part) for part in _split_top(s, ",")]
    return subset_from_roots(rs, vecs)


def _parse_interval(text: str) -> Tuple[int, int]:
    """The literal a:b as an integer pair, each bound an optional minus
    sign and ASCII digits; check_intervals judges the pair."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"interval must look like a:b, got {text!r}")
    if not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
        raise ValidationError(f"interval {text!r} has non-integer bounds")
    return int(parts[0]), int(parts[1])


# ---------------------------------------------------------------------------
# shared formatting


def _root_str(vec: Vector) -> str:
    return "(" + ",".join(str(c) for c in vec) + ")"


def _subset_str(rs: RootSystem, psi: RootSubset) -> str:
    if not psi:
        return "empty"
    return ",".join(_root_str(rs.positive_roots[i]) for i in psi)


def _subset_json(rs: RootSystem, psi: RootSubset) -> List[List[int]]:
    return [list(rs.positive_roots[i]) for i in psi]


def _system_block(rs: RootSystem) -> dict:
    return {
        "family": rs.family,
        "rank": rs.rank,
        "h": rs.coxeter_number,
        "f": rs.index_of_connection,
        "marks": list(rs.marks),
    }


def _qp_lines(qp: QuasiPolynomial) -> List[str]:
    lines = [f"period: {qp.period}"]
    for k in range(1, qp.period + 1):
        lines.append(f"residue {k}: {qp.constituents[k - 1].format()}")
    return lines


def _witness_json(res) -> Optional[dict]:
    if res.witness is None:
        return None
    return {"residue": res.witness.residue, "q": res.witness.q}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (human lines, json result)


def _cmd_info(args, rs: RootSystem):
    alcoves = rs.weyl_order // rs.index_of_connection
    n = len(rs.positive_roots)
    lines = [
        f"system: {rs.family}{rs.rank}",
        f"coxeter number h: {rs.coxeter_number}",
        f"index of connection f: {rs.index_of_connection}",
        f"marks: {_root_str(rs.marks)}",
        f"highest root: {_root_str(rs.highest_root)}",
        f"weyl order: {rs.weyl_order}",
        f"alcoves: {alcoves}",
        f"positive roots: {n}",
    ]
    result = {
        "weyl_order": rs.weyl_order,
        "alcoves": alcoves,
        "positive_roots": n,
        "highest_root": list(rs.highest_root),
    }
    return lines, result, {}


def _cmd_char_quasi(args, rs: RootSystem):
    qp = char_quasi_subset(rs, parse_subset(rs, args.subset))
    return _qp_lines(qp), qp_to_json(qp), {"subset": args.subset}


def _cmd_eulerian(args, rs: RootSystem):
    psi = parse_subset(rs, args.subset)
    if args.variant == "e":
        poly = eulerian_poly(rs, psi)
    elif args.variant == "m":
        poly = m_poly(rs, psi)
    else:
        raise ValidationError(f"unknown variant {args.variant!r}; use e or m")
    lines = [poly.format("t")]
    return lines, poly_to_json(poly), {"subset": args.subset, "variant": args.variant}


def _cmd_ehrhart(args, rs: RootSystem):
    if args.variant == "closed":
        qp = ehrhart_closed_qp(rs)
    elif args.variant == "open":
        qp = ehrhart_open_qp(rs)
    else:
        raise ValidationError(f"unknown variant {args.variant!r}; use closed or open")
    return _qp_lines(qp), qp_to_json(qp), {"variant": args.variant}


def _ideal_count(rs: RootSystem) -> int:
    """The number of ideals of the root poset, without listing them:
    Cat(W) = prod (h + e_i + 1) / prod (e_i + 1), the latter |W|, the
    exponents e_i dual to the numbers of roots per height."""
    per_height = Counter(map(height, rs.positive_roots)).values()
    exps = [sum(n >= i for n in per_height) for i in range(1, rs.rank + 1)]
    return math.prod(rs.coxeter_number + e + 1 for e in exps) // rs.weyl_order


def _cmd_compat(args, rs: RootSystem):
    if args.subset.strip() == "ideal-all":
        # each ideal's lane is rank + 1 columns of |W|/f bytes
        count = _ideal_count(rs)
        need = count * (rs.rank + 1) * rs.weyl_order // rs.index_of_connection
        if need > MAX_SWEEP_BYTES:
            raise ResourceCapError(
                f"the sweep over the {count} ideals of {rs.family}{rs.rank} "
                f"translates {need} bytes of descent lanes, above the limit of "
                f"{MAX_SWEEP_BYTES}"
            )
        rows = []
        lines = []
        all_ok = True
        for psi in enumerate_ideals(rs):
            res = is_compatible(rs, psi)
            all_ok = all_ok and res.compatible
            rows.append(
                {
                    "subset": _subset_json(rs, psi),
                    "compatible": res.compatible,
                    "witness": _witness_json(res),
                }
            )
            tag = "compatible" if res.compatible else (
                f"incompatible at q={res.witness.q} (residue {res.witness.residue})"
            )
            lines.append(f"{_subset_str(rs, psi)}: {tag}")
        lines.append(f"ideals: {len(rows)}")
        lines.append(f"all compatible: {'yes' if all_ok else 'no'}")
        result = {"ideals": rows, "count": len(rows), "all_compatible": all_ok}
        return lines, result, {"subset": args.subset}
    psi = parse_subset(rs, args.subset)
    res = is_compatible(rs, psi)
    if res.compatible:
        lines = ["compatible"]
    else:
        lines = [
            f"incompatible: first difference at q={res.witness.q} "
            f"(residue {res.witness.residue})"
        ]
    result = {"compatible": res.compatible, "witness": _witness_json(res)}
    return lines, result, {"subset": args.subset}


def _cmd_ideals(args, rs: RootSystem):
    count = _ideal_count(rs)
    need = count * len(rs.positive_roots)
    if need > MAX_IDEAL_LISTING:
        raise ResourceCapError(
            f"listing the {count} ideals of {rs.family}{rs.rank} takes {need} "
            f"root steps, above the limit of {MAX_IDEAL_LISTING}"
        )
    ideals = enumerate_ideals(rs)
    lines = [f"ideals: {len(ideals)}"]
    lines.extend(_subset_str(rs, psi) for psi in ideals)
    result = {
        "count": len(ideals),
        "ideals": [_subset_json(rs, psi) for psi in ideals],
    }
    return lines, result, {}


def _cmd_deform(args, rs: RootSystem):
    """deform prints the closed formula; verify compares it with the
    deformed arrangement's counts."""
    psi = parse_subset(rs, args.subset)
    intervals = check_intervals(args.variant, [_parse_interval(t) for t in args.interval or []])
    type1 = len(intervals) == 1
    formula = (cqp_type1_formula if type1 else cqp_type2_formula)(
        rs, psi, args.variant, *intervals
    )
    echo = {
        "subset": args.subset,
        "variant": args.variant,
        "intervals": [f"{lo}:{hi}" for lo, hi in intervals],
    }
    if args.command == "deform":
        return _qp_lines(formula), qp_to_json(formula), echo
    spec = (type1_spec if type1 else type2_spec)(rs, psi, *intervals)
    ok = verify_deform(rs, spec, formula)
    return ["equal" if ok else "different"], {"equal": ok}, echo


def _cmd_genfunc(args, rs: RootSystem):
    psi = parse_subset(rs, args.subset)
    ok = verify_genfunc(rs, psi, args.terms)
    lines = [
        f"agrees to order {args.terms}" if ok else f"disagrees within order {args.terms}"
    ]
    result = {"agrees": ok, "order": args.terms}
    return lines, result, {"subset": args.subset, "terms": args.terms}


_HANDLERS = {
    "info": _cmd_info,
    "char-quasi": _cmd_char_quasi,
    "eulerian": _cmd_eulerian,
    "ehrhart": _cmd_ehrhart,
    "compat": _cmd_compat,
    "ideals": _cmd_ideals,
    "deform": _cmd_deform,
    "verify": _cmd_deform,
    "genfunc": _cmd_genfunc,
}


# ---------------------------------------------------------------------------
# argument parsing


# Built once per process: parse_args reads the parser and leaves it as it
# was, so successive main calls share it.
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--type",
        required=True,
        choices=list("ABCDEFG"),
        help="root system family letter",
    )
    common.add_argument("--rank", required=True, type=int, help="root system rank")
    common.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )

    subset_opt = argparse.ArgumentParser(add_help=False)
    subset_opt.add_argument(
        "--subset",
        required=True,
        help='subset expression: full, empty, minus:(tuple), '
        'ideal:(tuple);(tuple), or explicit tuples "(1,0),(1,1)"',
    )

    parser = argparse.ArgumentParser(
        prog="weylq",
        description="Exact quasi-polynomial computations on root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common], help="numeric invariants of the system")

    sub.add_parser(
        "char-quasi",
        parents=[common, subset_opt],
        help="characteristic quasi-polynomial of a root subset",
    )

    p = sub.add_parser(
        "eulerian",
        parents=[common, subset_opt],
        help="descent-statistic generating polynomial",
    )
    p.add_argument(
        "--variant",
        default="e",
        help="e for the descent polynomial, m for the inside-ascent polynomial",
    )

    p = sub.add_parser(
        "ehrhart", parents=[common], help="alcove Ehrhart quasi-polynomial"
    )
    p.add_argument("--variant", default="closed", help="closed or open alcove")

    sub.add_parser(
        "compat",
        parents=[common, subset_opt],
        help="decide the shift-formula compatibility of a subset "
        '(--subset "ideal-all" sweeps every ideal)',
    )

    sub.add_parser("ideals", parents=[common], help="list the root poset ideals")

    for name, text in (
        ("deform", "closed formula for an interval deformation"),
        ("verify", "compare a deformation formula against brute-force counts"),
    ):
        p = sub.add_parser(name, parents=[common, subset_opt], help=text)
        p.add_argument(
            "--variant",
            required=True,
            help="symmetric or positive (one interval), i, ii or iii (two)",
        )
        p.add_argument(
            "--interval",
            action="append",
            metavar="a:b",
            help="deformation interval; repeat for two-interval variants; "
            "use --interval=-1:2 when the lower bound is negative",
        )

    p = sub.add_parser(
        "genfunc",
        parents=[common, subset_opt],
        help="check the generating-function identity to finite order",
    )
    p.add_argument(
        "--terms", type=int, default=60, help="truncation order of the series"
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rs = build_root_system(args.type, args.rank)
        lines, result, echo = _HANDLERS[args.command](args, rs)
    except (ValidationError, ResourceCapError, InconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {ValidationError: 2, ResourceCapError: 3}.get(type(exc), 4)
    if args.json:
        query = {"command": args.command, **echo}
        payload = {"system": _system_block(rs), "query": query, "result": result}
        lines = [json.dumps(payload, indent=2)]
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader went away (| head): stdout goes to the null device, so
        # that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
