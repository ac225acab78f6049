"""Seeded CLI queries for each workload, and the checks on their answers.

Every workload is a closed loop with one client: a single process sends
the next query to ``weylq.cli.main`` only after the previous one returned.

- compat-sweep: ``compat --subset ideal-all`` on B4 and on C4, the seed
  picking which type goes first.  Many small ``char_quasi`` calls share the
  period memo across ideals, and each ideal runs a descent classification.
  Both types run in every sample because their sweeps differ in cost, and
  a benchmark whose figure depends on which type a seed drew could not
  tell a code change from a seed change.
- eulerian-e6: ``eulerian --variant e`` then ``--variant m`` on one E6
  ideal picked by the seed.  Weyl enumeration and classification are
  nearly all of the time; no period search and no counting run.
- deform-verify: ``verify`` on D4 ``full``: ``--variant symmetric`` with
  interval [-a, b], a + b = 3 and a picked by the seed, then its mirror
  [-b, a] (so the pair costs the same whatever a is), then ``--variant i``
  with intervals -1:1 and 0:1.  Nonzero offsets lift the sampling floor to
  large q, so the counting kernel dominates.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from typing import Dict, List, Optional

WORKLOADS = ("compat-sweep", "eulerian-e6", "deform-verify")

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def result_digest(doc: dict) -> str:
    """SHA-256 of the canonical form of a ``--json`` document's result."""
    canon = json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _query(qid: str, argv: List[str], cap_s: float, check: dict) -> dict:
    return {"id": qid, "argv": argv + ["--json"], "cap_s": cap_s, "check": check}


def _ideal_expr(rs, psi) -> str:
    """The ideal as the CLI's ``ideal:`` expression of its maximal roots."""
    from weylq.rootsys import poset_leq

    if not psi:
        return "empty"
    roots = [rs.positive_roots[i] for i in psi]
    tops = [r for r in roots if not any(s != r and poset_leq(r, s) for s in roots)]
    return "ideal:" + ";".join("(" + ",".join(map(str, r)) + ")" for r in tops)


def make_queries(workload: str, seed: int) -> List[dict]:
    """The queries of one sample; the same seed gives the same queries."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "compat-sweep":
        first = rng.choice("BC")
        return [
            _query(f"compat-{t}4-ideal-all",
                   ["compat", "--type", t, "--rank", "4", "--subset", "ideal-all"],
                   60, {"kind": "sweep", "type": t, "rank": 4})
            for t in (first, "C" if first == "B" else "B")
        ]
    if workload == "eulerian-e6":
        from weylq.rootsys import build_root_system, enumerate_ideals

        rs = build_root_system("E", 6)
        ideals = enumerate_ideals(rs)
        index = rng.randrange(len(ideals))
        expr = _ideal_expr(rs, ideals[index])
        return [
            _query(f"eulerian-E6-{v}-ideal{index}",
                   ["eulerian", "--type", "E", "--rank", "6", "--subset", expr,
                    "--variant", v],
                   90, {"kind": "eulerian", "type": "E", "rank": 6})
            for v in "em"
        ]
    if workload == "deform-verify":
        a = rng.randrange(4)
        base = ["verify", "--type", "D", "--rank", "4", "--subset", "full"]
        out = [
            _query(f"verify-D4-symmetric-{-lo}:{hi}",
                   base + ["--variant", "symmetric", f"--interval={-lo}:{hi}"],
                   60, {"kind": "verify"})
            for lo, hi in ((a, 3 - a), (3 - a, a))
        ]
        out.append(_query("verify-D4-i--1:1,0:1",
                          base + ["--variant", "i", "--interval=-1:1", "--interval=0:1"],
                          60, {"kind": "verify"}))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def load_pinned() -> Dict[str, str]:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def check_answer(query: dict, stdout: str, pinned: Dict[str, str]) -> Optional[str]:
    """None when the answer is right, else the reason it is wrong.

    The digest is compared when the query is pinned; the invariants hold
    for any seed and are checked always.
    """
    from weylq.rootsys import build_root_system, enumerate_ideals

    try:
        doc = json.loads(stdout)
        result = doc["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable --json output: {exc}"
    expected = pinned.get(query["id"])
    if expected is not None and result_digest(doc) != expected:
        return f"result digest {result_digest(doc)} differs from the pinned {expected}"
    check = query["check"]
    if check["kind"] == "verify":
        return None if result == {"equal": True} else f"verify printed {result!r}"
    rs = build_root_system(check["type"], check["rank"])
    if check["kind"] == "sweep":
        ideals = [[list(rs.positive_roots[i]) for i in psi] for psi in enumerate_ideals(rs)]
        if result.get("count") != len(ideals):
            return f"sweep count {result.get('count')} != {len(ideals)} ideals"
        if [row["subset"] for row in result["ideals"]] != ideals:
            return "sweep rows do not list the enumerated ideals in order"
        return None
    total = sum(Fraction(c) for c in result["coeffs_ascending"])
    want = rs.weyl_order // rs.index_of_connection
    if total != want:
        return f"coefficients sum to {total}, not |W|/f = {want}"
    return None
