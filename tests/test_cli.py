"""Command-line interface: parsing, output shapes, exit codes."""

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

from weylq import charquasi, cli, eulerian, rootsys
from weylq.charquasi import char_quasi_subset
from weylq.cli import main, parse_subset, qp_to_json
from weylq.deform import cqp_type1_formula, cqp_type2_formula
from weylq.ehrhart import ehrhart_closed_qp
from weylq.errors import ValidationError
from weylq.quasipoly import QuasiPolynomial, RationalPolynomial, qp_equal
from weylq.rootsys import build_root_system, enumerate_ideals

from oracles import qp_from_json


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G", 2)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_proc(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "weylq.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def _readme_examples():
    """The `$ weylq ...` commands of README's Examples block, each with the
    output lines shown under it; a final `...` line marks a truncation."""
    with open(os.path.join(os.path.dirname(SRC_DIR), "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ weylq "), command
        examples.append((shlex.split(command)[2:], shown))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES]
)
def test_readme_examples_match_the_cli(capsys, argv, shown):
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    if shown[-1] == "...":
        shown = shown[:-1]
        lines = lines[: len(shown)]
    assert lines == shown


def test_benchmark_trace_bindings_resolve():
    """The benchmark's tracer finds every layer function in the modules it
    expects, and on each workload's seed-1 queries every layer it expects
    to be used records a span and every layer it expects to be idle none;
    so dropping a traced import or a traced call fails here and not only
    in a traced benchmark run."""
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import contextlib, io, json\n"
        "import weylq.cli, weylq.kernels\n"
        "from tracing import LAYERS, Tracer\n"
        "from workloads import WORKLOADS, make_queries\n"
        "queries = {w: make_queries(w, 1) for w in WORKLOADS}\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "spans = {}\n"
        "for workload, batch in queries.items():\n"
        "    start = len(tracer.spans)\n"
        "    for index, query in enumerate(batch):\n"
        "        tracer.query = index\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert weylq.cli.main(query['argv']) == 0, query['id']\n"
        "    spans[workload] = sorted({LAYERS[rec[0]].name for rec in tracer.spans[start:]})\n"
        "layers = [(l.name, l.used_on, l.idle_on) for l in LAYERS]\n"
        "print(json.dumps({'spans': spans, 'layers': layers}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        cwd=os.path.dirname(SRC_DIR),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for workload, traced in report["spans"].items():
        for name, used_on, idle_on in report["layers"]:
            if workload in used_on:
                assert name in traced, f"{name} recorded no span on {workload}"
            if workload in idle_on:
                assert name not in traced, f"{name} recorded spans on {workload}"


def test_cli_import_leaves_out_the_dataclasses_machinery():
    """A bare interpreter that imports weylq.cli and weylq.kernels, as every
    process does, loads none of dataclasses, inspect, ast or dis."""
    code = (
        "import sys; sys.path[:0] = ['src']\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis'}\n"
        "assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))\n"
        "import weylq.cli, weylq.kernels\n"
        "print(sorted(heavy & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=os.path.dirname(SRC_DIR),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def test_info_text(capsys):
    code, out, err = run_main(capsys, "info", "--type", "G", "--rank", "2")
    assert code == 0
    assert err == ""
    assert out == (
        "system: G2\n"
        "coxeter number h: 6\n"
        "index of connection f: 1\n"
        "marks: (3,2)\n"
        "highest root: (3,2)\n"
        "weyl order: 12\n"
        "alcoves: 12\n"
        "positive roots: 6\n"
    )


def test_info_json(capsys):
    code, out, _ = run_main(capsys, "info", "--type", "G", "--rank", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"system", "query", "result"}
    assert payload["system"] == {"family": "G", "rank": 2, "h": 6, "f": 1, "marks": [3, 2]}
    assert payload["query"]["command"] == "info"
    assert payload["result"]["weyl_order"] == 12
    assert payload["result"]["alcoves"] == 12


def test_char_quasi_text(capsys):
    code, out, _ = run_main(
        capsys, "char-quasi", "--type", "G", "--rank", "2", "--subset", "minus:(3,2)"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "period: 6"
    assert lines[1] == "residue 1: q^2 - 5q + 4"
    assert lines[6] == "residue 6: q^2 - 5q + 8"


def test_char_quasi_json_round_trip(capsys, g2):
    code, out, _ = run_main(
        capsys,
        "char-quasi", "--type", "G", "--rank", "2",
        "--subset", "minus:(3,2)", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    recovered = qp_from_json(payload["result"])
    assert qp_equal(recovered, char_quasi_subset(g2, (0, 1, 2, 3, 4)))


def test_ehrhart_json_rationals(capsys, g2):
    code, out, _ = run_main(capsys, "ehrhart", "--type", "G", "--rank", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    first = payload["result"]["constituents"][0]
    assert first == {"residue": 1, "coeffs_ascending": ["5/12", "1/2", "1/12"]}
    assert qp_equal(qp_from_json(payload["result"]), ehrhart_closed_qp(g2))


def test_eulerian_text(capsys):
    code, out, _ = run_main(
        capsys,
        "eulerian", "--type", "G", "--rank", "2",
        "--subset", "(1,0),(1,1),(3,2)",
    )
    assert code == 0
    assert out == "5t^6 + t^5 + 2t^4 + 3t^3 + t^2\n"


def test_eulerian_m_variant(capsys):
    code, out, _ = run_main(
        capsys,
        "eulerian", "--type", "G", "--rank", "2",
        "--subset", "(1,0),(1,1),(3,2)", "--variant", "m",
    )
    assert code == 0
    assert out == "t^10 + 3t^9 + 2t^8 + t^7 + 5t^6\n"


def test_ideals_text(capsys):
    code, out, _ = run_main(capsys, "ideals", "--type", "A", "--rank", "2")
    assert code == 0
    assert out.splitlines() == [
        "ideals: 5",
        "empty",
        "(0,1)",
        "(1,0)",
        "(0,1),(1,0)",
        "(0,1),(1,0),(1,1)",
    ]


def test_ideals_listing_refused_before_it_starts(capsys, monkeypatch):
    """ideals checks Cat(W) times N against MAX_IDEAL_LISTING before it lists
    anything: with the bound lowered below G2's 8 ideals times 6 roots the
    listing exits 3 without calling enumerate_ideals, and at the bound it
    answers."""
    listed = []
    monkeypatch.setattr(cli, "enumerate_ideals", lambda rs: listed.append(rs) or enumerate_ideals(rs))
    monkeypatch.setattr(cli, "MAX_IDEAL_LISTING", 47)
    code, out, err = run_main(capsys, "ideals", "--type", "G", "--rank", "2")
    assert (code, out, listed) == (3, "", [])
    assert err == "error: listing the 8 ideals of G2 takes 48 root steps, above the limit of 47\n"
    monkeypatch.setattr(cli, "MAX_IDEAL_LISTING", 48)
    code, out, err = run_main(capsys, "ideals", "--type", "G", "--rank", "2")
    assert (code, err, len(listed)) == (0, "", 1)
    assert out.startswith("ideals: 8\n")


def test_ideals_listing_bound_admits_e8_and_a10(capsys, monkeypatch):
    """At the default bound A11 (208,012 ideals) and A20 exit 3 at once,
    while E8 and A10, whose Cat(W) is counted and not listed here, fit."""
    monkeypatch.setattr(cli, "enumerate_ideals", None)
    for family, rank, count in [("A", 11, 208_012), ("A", 20, 24_466_267_020)]:
        code, out, err = run_main(capsys, "ideals", "--type", family, "--rank", str(rank))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: listing the {count} ideals of {family}{rank} takes ")
    for family, rank, count in [("E", 8, 25_080), ("A", 10, 58_786), ("B", 4, 70)]:
        rs = build_root_system(family, rank)
        assert cli._ideal_count(rs) == count
        assert count * len(rs.positive_roots) <= cli.MAX_IDEAL_LISTING
    assert cli._ideal_count(build_root_system("E", 6)) == len(enumerate_ideals(build_root_system("E", 6)))


def test_huge_rank_exits_3_before_building(capsys, monkeypatch):
    def no_build(family, rank):
        raise AssertionError("built")

    monkeypatch.setattr(rootsys, "_build", no_build)
    code, out, err = run_main(capsys, "info", "--type", "A", "--rank", "100000")
    assert (code, out) == (3, "")
    assert err == (
        f"error: building A100000 takes {100_000**3 * 100_001} root closure steps, "
        f"above the limit of {rootsys.MAX_BUILD_STEPS}\n"
    )


def test_compat_single(capsys):
    code, out, _ = run_main(
        capsys,
        "compat", "--type", "G", "--rank", "2", "--subset", "(1,0),(1,1),(3,2)",
    )
    assert code == 0
    assert out == "incompatible: first difference at q=3 (residue 3)\n"


def test_compat_ideal_sweep(capsys):
    code, out, _ = run_main(
        capsys, "compat", "--type", "A", "--rank", "2", "--subset", "ideal-all"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-2:] == ["ideals: 5", "all compatible: yes"]
    assert all(line.endswith("compatible") for line in lines[:-2])


def test_compat_sweep_json(capsys):
    code, out, _ = run_main(
        capsys,
        "compat", "--type", "A", "--rank", "2", "--subset", "ideal-all", "--json",
    )
    payload = json.loads(out)
    assert payload["result"]["count"] == 5
    assert payload["result"]["all_compatible"] is True
    assert len(payload["result"]["ideals"]) == 5


def test_deform_and_verify(capsys):
    code, out, _ = run_main(
        capsys,
        "deform", "--type", "A", "--rank", "2", "--subset", "full",
        "--variant", "symmetric", "--interval=0:1",
    )
    assert code == 0
    assert out == "period: 1\nresidue 1: q^2 - 6q + 9\n"
    code, out, _ = run_main(
        capsys,
        "verify", "--type", "A", "--rank", "2", "--subset", "full",
        "--variant", "symmetric", "--interval=0:1",
    )
    assert code == 0
    assert out == "equal\n"


def test_verify_detects_failure(capsys):
    code, out, _ = run_main(
        capsys,
        "verify", "--type", "A", "--rank", "2", "--subset", "(1,0)",
        "--variant", "symmetric", "--interval=0:1",
    )
    assert code == 0
    assert out == "different\n"


def test_deform_two_intervals(capsys):
    code, out, _ = run_main(
        capsys,
        "deform", "--type", "A", "--rank", "2", "--subset", "(1,0)",
        "--variant", "ii", "--interval=0:0", "--interval=1:1",
    )
    assert code == 0
    assert out.startswith("period:")


# One valid choice of literal intervals per variant, and shape violations
# (wrong shape, wrong interval count, unknown variant).
DEFORM_CASES = {
    "symmetric": [(-1, 2)],
    "positive": [(1, 2)],
    "i": [(-1, 1), (0, 1)],
    "ii": [(0, 1), (1, 2)],
    "iii": [(1, 2), (1, 1)],
}
SHAPE_VIOLATIONS = [
    ("symmetric", [(1, 2)]),
    ("symmetric", [(-2, -1)]),
    ("positive", [(0, 2)]),
    ("i", [(0, 1), (1, 2)]),
    ("ii", [(0, 1), (0, 1)]),
    ("ii", [(1, 1), (1, 1)]),
    ("iii", [(1, 1), (0, 1)]),
    ("symmetric", [(0, 1), (0, 1)]),
    ("i", [(0, 1)]),
    ("iv", [(0, 1)]),
]


def _deform_argv(family, rank, subset, variant, intervals):
    return [
        "deform", "--type", family, "--rank", str(rank), "--subset", subset,
        "--variant", variant, *(f"--interval={lo}:{hi}" for lo, hi in intervals),
    ]


def _library_formula(rs, psi, variant, intervals):
    formula = (cqp_type1_formula, cqp_type2_formula)[len(intervals) - 1]
    return formula(rs, psi, variant, *intervals)


@pytest.mark.parametrize(
    "family, rank, subset",
    [("A", 2, "full"), ("G", 2, "full"), ("B", 3, "full"), ("B", 3, "ideal:(1,1,0)")],
)
def test_cli_and_library_agree_on_deformations(capsys, family, rank, subset):
    """deform --json prints the library's formula for the same literal
    intervals, and each refusal prints the library's message."""
    rs = build_root_system(family, rank)
    psi = parse_subset(rs, subset)
    for variant, intervals in DEFORM_CASES.items():
        argv = _deform_argv(family, rank, subset, variant, intervals)
        code, out, err = run_main(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        expected = qp_to_json(_library_formula(rs, psi, variant, intervals))
        assert json.loads(out)["result"] == expected, argv
    for variant, intervals in SHAPE_VIOLATIONS:
        argv = _deform_argv(family, rank, subset, variant, intervals)
        with pytest.raises(ValidationError) as exc:
            _library_formula(rs, psi, variant, intervals)
        assert run_main(capsys, *argv) == (2, "", f"error: {exc.value}\n"), argv


def test_main_shares_one_parser(capsys):
    """main parses with one parser per process, and successive calls on
    different subcommands (a repeated option, a rejected command exiting 2
    and the same subcommand with fewer options among them) print what a
    fresh parser would."""
    runs = [
        ["info", "--type", "G", "--rank", "2"],
        ["deform", "--type", "A", "--rank", "2", "--subset", "(1,0)",
         "--variant", "ii", "--interval=0:0", "--interval=1:1"],
        ["eulerian", "--type", "B", "--rank", "3", "--subset", "full", "--variant", "m", "--json"],
        ["bogus", "--type", "G", "--rank", "2"],
        ["deform", "--type", "A", "--rank", "2", "--subset", "full",
         "--variant", "symmetric", "--interval=0:1"],
        ["eulerian", "--type", "B", "--rank", "3", "--subset", "full"],
        ["info", "--type", "G", "--rank", "2", "--json"],
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in runs]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0, 0]
    assert "invalid choice: 'bogus'" in shared[3][2]


def test_lifted_cap_refuses_e8_table(capsys, monkeypatch):
    """E8's image table does not fit the byte bound: exit 3 before the
    enumeration starts."""
    monkeypatch.setattr(rootsys, "_weyl_elements", lambda rs: pytest.fail("enumeration started"))
    code, out, err = run_main(
        capsys, "eulerian", "--type", "E", "--rank", "8", "--subset", "full"
    )
    assert (code, out) == (3, "")
    assert "image table of E8 takes 12541132800 bytes" in err


def test_genfunc(capsys):
    code, out, _ = run_main(
        capsys, "genfunc", "--type", "G", "--rank", "2", "--subset", "full"
    )
    assert code == 0
    assert out == "agrees to order 60\n"
    code, out, _ = run_main(
        capsys,
        "genfunc", "--type", "G", "--rank", "2", "--subset", "(1,0),(1,1),(3,2)",
    )
    assert code == 0
    assert out == "disagrees within order 60\n"


def test_parse_subset_forms(g2):
    assert parse_subset(g2, "full") == (0, 1, 2, 3, 4, 5)
    assert parse_subset(g2, "empty") == ()
    assert parse_subset(g2, "minus:(3,2)") == (0, 1, 2, 3, 4)
    assert parse_subset(g2, "ideal:(2,1)") == (0, 1, 2, 3)
    assert parse_subset(g2, "ideal:(2,1);(3,1)") == (0, 1, 2, 3, 4)
    assert parse_subset(g2, "(1,0),(3,2)") == (1, 5)


def test_parse_subset_errors(g2):
    with pytest.raises(ValidationError):
        parse_subset(g2, "(1,0),(9,9)")
    with pytest.raises(ValidationError):
        parse_subset(g2, "(1,0,0)")
    with pytest.raises(ValidationError):
        parse_subset(g2, "(1,0")
    with pytest.raises(ValidationError):
        parse_subset(g2, "")


def test_qp_json_round_trip_helpers():
    qp = QuasiPolynomial(
        2, (RationalPolynomial((1, 2)), RationalPolynomial((0, 0, 3)))
    )
    assert qp_equal(qp_from_json(qp_to_json(qp)), qp)


def test_closed_stdout_exits_141_without_a_traceback():
    """The E6 ideal listing (145 KB, more than a pipe buffer holds) read
    one line at a time by a reader that then goes away, as `| head -1`
    does: exit 141 and nothing on standard error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylq.cli", "ideals", "--type", "E", "--rank", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"ideals: 833\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_exit_code_validation_error():
    proc = run_proc("char-quasi", "--type", "G", "--rank", "2", "--subset", "(9,9)")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "not a positive root" in proc.stderr


def test_exit_code_usage_error():
    proc = run_proc("char-quasi", "--type", "G", "--rank", "2")
    assert proc.returncode == 2
    proc = run_proc("no-such-command")
    assert proc.returncode == 2


def test_exit_code_resource_cap():
    """A10's image table (878 MB while built) passes the byte bound."""
    proc = run_proc("eulerian", "--type", "A", "--rank", "10", "--subset", "empty")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "image table of A10 takes 878169600 bytes" in proc.stderr


def test_weyl_cap_option_is_gone():
    """The table bound is computed from the system, so there is no
    --weyl-cap to lift it; scripts that pass the option fail."""
    proc = run_proc(
        "eulerian", "--type", "G", "--rank", "2", "--subset", "full", "--weyl-cap", "10"
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --weyl-cap 10" in proc.stderr


E8_TABLE = "error: building the Weyl group image table of E8 takes 12541132800 bytes"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eulerian", "--subset", "full"], 3),
        (["eulerian", "--subset", "full", "--variant", "m"], 3),
        (["compat", "--subset", "full"], 3),
        (["compat", "--subset", "ideal-all"], 3),
        (["deform", "--subset", "full", "--variant", "symmetric", "--interval=0:1"], 3),
        (["verify", "--subset", "full", "--variant", "symmetric", "--interval=0:1"], 3),
        (["genfunc", "--subset", "full", "--terms", "90"], 3),
        # these never enumerate the group, so the table bound does not
        # touch them
        (["char-quasi", "--subset", "empty"], 0),
        (["ehrhart"], 0),
    ],
    ids=[
        "eulerian-e", "eulerian-m", "compat", "compat-ideal-all", "deform",
        "verify", "genfunc", "char-quasi", "ehrhart",
    ],
)
def test_every_handler_forwards_the_cap(capsys, monkeypatch, argv, code):
    """Every handler that enumerates the Weyl group exits 3 on E8 and
    builds no table: on the table bound, or for the ideal sweep on the
    sweep bound, which it checks before it lists the ideals."""
    monkeypatch.setattr(rootsys, "_weyl_elements", lambda rs: pytest.fail("enumeration started"))
    monkeypatch.setattr(cli, "enumerate_ideals", lambda rs: pytest.fail("ideals listed"))
    command, *rest = argv
    got, out, err = run_main(capsys, command, "--type", "E", "--rank", "8", *rest)
    assert got == code
    if code == 3:
        assert out == ""
        assert err.startswith(
            "error: the sweep over the 25080 ideals of E8" if "ideal-all" in argv else E8_TABLE
        )
    else:
        assert out and err == ""


# Every system whose group a sweep could enumerate under the former default
# limit of 2,000,000 elements; the next rank of each family is over it.
OLD_SWEEPS = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 8)]
    + [("C", r) for r in range(2, 8)] + [("D", r) for r in range(3, 8)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


def test_sweep_bound_admits_every_former_sweep(capsys, monkeypatch):
    """Without running them: every sweep the former default admitted
    translates at most MAX_SWEEP_BYTES of descent lanes, the ideals times
    (rank + 1) times |W|/f.  The sweep predicts its ideals as Cat(W) from
    the exponents: with the bound at 0, each refusal names the number of
    ideals that enumerate_ideals lists."""
    limit = cli.MAX_SWEEP_BYTES
    monkeypatch.setattr(cli, "MAX_SWEEP_BYTES", 0)
    for family, rank in OLD_SWEEPS:
        rs = build_root_system(family, rank)
        assert rs.weyl_order <= 2_000_000
        ideals = len(enumerate_ideals(rs))
        need = ideals * (rank + 1) * rs.weyl_order // rs.index_of_connection
        assert need <= limit, (family, rank, need)
        code, out, err = run_main(
            capsys, "compat", "--type", family, "--rank", str(rank), "--subset", "ideal-all"
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: the sweep over the {ideals} ideals of {family}{rank} translates "
            f"{need} bytes of descent lanes, above the limit of 0\n"
        )
    for family, rank in [("A", 9), ("B", 8), ("C", 8), ("D", 8), ("E", 7)]:
        assert build_root_system(family, rank).weyl_order > 2_000_000


def test_e7_sweep_is_refused_before_its_first_ideal(capsys, monkeypatch):
    """E7's 4,160 ideals would translate 4.83e10 bytes of lanes, 8 columns
    of |W|/2 bytes each: exit 3 before any ideal is decided."""
    monkeypatch.setattr(cli, "is_compatible", lambda *args: pytest.fail("an ideal was decided"))
    code, out, err = run_main(capsys, "compat", "--type", "E", "--rank", "7", "--subset", "ideal-all")
    assert (code, out) == (3, "")
    assert err == (
        "error: the sweep over the 4160 ideals of E7 translates 48306585600 bytes "
        f"of descent lanes, above the limit of {cli.MAX_SWEEP_BYTES}\n"
    )


@pytest.mark.parametrize(
    "command, family, rank",
    [("compat", "D", 5), ("genfunc", "D", 5), ("compat", "B", 5)],
)
def test_weyl_cap_refuses_before_counting(capsys, monkeypatch, command, family, rank):
    """The table bound is checked before the characteristic
    quasi-polynomial is computed, so no period search starts and the
    refusal names the table: with the limit lowered to 10000 bytes, below
    D5's 23040 and B5's 46080."""
    monkeypatch.setattr(rootsys, "MAX_WEYL_TABLE_BYTES", 10_000)
    searches = []
    search = charquasi.lcm_period
    monkeypatch.setattr(charquasi, "lcm_period", lambda spec: searches.append(spec) or search(spec))
    charquasi._char_quasi.cache_clear()
    code, out, err = run_main(capsys, command, "--type", family, "--rank", str(rank), "--subset", "full")
    need = 2 * (rank + 1) * build_root_system(family, rank).weyl_order
    assert (code, out) == (3, "")
    assert err == (
        f"error: building the Weyl group image table of {family}{rank} "
        f"takes {need} bytes, above the limit of 10000\n"
    )
    assert searches == []


@pytest.mark.parametrize("command", ["compat", "genfunc"])
def test_e8_table_refused_before_counting(capsys, monkeypatch, command):
    """At the default limit E8 full is refused on its table before any
    period search."""
    searches = []
    search = charquasi.lcm_period
    monkeypatch.setattr(charquasi, "lcm_period", lambda spec: searches.append(spec) or search(spec))
    charquasi._char_quasi.cache_clear()
    code, out, err = run_main(
        capsys, command, "--type", "E", "--rank", "8", "--subset", "full",
        *(["--terms", "90"] if command == "genfunc" else []),
    )
    assert (code, out) == (3, "")
    assert err.startswith(E8_TABLE)
    assert searches == []


def _first_roots(family, rank, n):
    """The subset expression of the first n positive roots."""
    roots = build_root_system(family, rank).positive_roots[:n]
    return ",".join("(" + ",".join(map(str, root)) + ")" for root in roots)


def test_exit_code_period_search_cap(capsys, monkeypatch):
    """No period search is made for a root subset too long for the
    count-first search, so on a system over the Weyl-table bound it is
    refused at once on the table: E8 full (120 roots) and a 23-root E8
    subset, one past the count-first bound (100 * 2^22 <= |W| < 100 * 2^23)."""
    monkeypatch.setattr(charquasi, "lcm_period", lambda spec: pytest.fail("period searched"))
    for subset in ("full", _first_roots("E", 8, 23)):
        code, out, err = run_main(
            capsys, "char-quasi", "--type", "E", "--rank", "8", "--subset", subset
        )
        assert (code, out) == (3, "")
        assert err.startswith(E8_TABLE)


def test_count_first_skips_searches_that_counting_would_refuse(capsys, monkeypatch):
    """In rank 10, counting passes MAX_COUNT_BITS even at period 1 (13^10
    bits), so a nonempty A10 subset is not searched and is refused on the
    Weyl table, while the empty one is still counted as q^10."""
    monkeypatch.setattr(charquasi, "lcm_period", lambda spec: pytest.fail("period searched"))
    code, out, err = run_main(
        capsys, "char-quasi", "--type", "A", "--rank", "10", "--subset", _first_roots("A", 10, 3)
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: building the Weyl group image table of A10 takes 878169600 bytes")
    monkeypatch.undo()
    code, out, err = run_main(capsys, "char-quasi", "--type", "A", "--rank", "10", "--subset", "empty")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["period: 1", "residue 1: q^10"]


def test_verify_counts_deformations_without_a_period_search(capsys, monkeypatch):
    """verify counts over lcm(marks) from B*h + 1, so it calls neither the
    period search nor a Smith normal form: on D4 full (the benchmark's
    queries) and on B5 full symmetric [0, 1]."""
    calls = []

    def counted(name):
        wrapped = getattr(charquasi, name)
        return lambda *args: calls.append(name) or wrapped(*args)

    for name in ("lcm_period", "smith_invariants"):
        monkeypatch.setattr(charquasi, name, counted(name))
    charquasi._char_quasi.cache_clear()
    charquasi._vector_period.cache_clear()
    for family, rank, variant, intervals in [
        ("D", 4, "symmetric", ["-1:2"]),
        ("D", 4, "i", ["-1:1", "0:1"]),
        ("B", 5, "symmetric", ["0:1"]),
    ]:
        code, out, err = run_main(
            capsys, "verify", "--type", family, "--rank", str(rank), "--subset", "full",
            "--variant", variant, *(f"--interval={i}" for i in intervals),
        )
        assert (code, out, err) == (0, "equal\n", "")
    assert calls == []


def test_exit_code_counting_cap(capsys):
    """Counting is refused before it starts when its largest sample would
    pass the counting cap: E6 full symmetric [0, 1] would count from
    B*h + 1 = 13 over lcm(marks) = 6 up to q = 66 in rank 6.  This 12-root
    E8 ideal has period 2, so it is not counted but sent to the face
    route, which refuses E8's Weyl table."""
    code, out, err = run_main(
        capsys, "verify", "--type", "E", "--rank", "6", "--subset", "full",
        "--variant", "symmetric", "--interval=0:1",
    )
    assert (code, out) == (3, "")
    assert "counting cap" in err
    assert "counting up to q=66 in rank 6" in err
    code, out, err = run_main(
        capsys, "char-quasi", "--type", "E", "--rank", "8", "--subset", "ideal:(0,1,1,2,1,0,0,0)"
    )
    assert (code, out) == (3, "")
    assert err.startswith(E8_TABLE)


def test_exit_code_inconsistency(capsys, monkeypatch):
    """A failed cross-check exits 4 with the check's message and nothing on
    standard output: here descent_profile disagrees with the lane sums
    that eulerian checks one element per value against."""
    classify = eulerian.descent_profile
    monkeypatch.setattr(
        eulerian, "descent_profile", lambda *args: classify(*args)._replace(descent=-1)
    )
    eulerian._lane.cache_clear()
    code, out, err = run_main(capsys, "eulerian", "--type", "G", "--rank", "2", "--subset", "full")
    assert (code, out) == (4, "")
    assert err.startswith("error: element ")
    assert err.endswith("in field descent\n")


def test_period_override_is_gone():
    """char-quasi always prints the minimal proven period; the former
    --period-override is an unknown option, so scripts that pass it fail."""
    proc = run_proc(
        "char-quasi", "--type", "G", "--rank", "2", "--subset", "full",
        "--period-override", "12",
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --period-override 12" in proc.stderr


def test_readme_documents_every_option():
    """README's Command line section names every long option the parser
    defines (argparse's own --help aside), and no other."""
    parser = cli.build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices.values()
    defined = {
        option
        for p in (parser, *commands)
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--")
    } - {"--help"}
    with open(os.path.join(os.path.dirname(SRC_DIR), "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## Testing\n", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == defined


def test_interval_syntax_errors():
    proc = run_proc(
        "deform", "--type", "A", "--rank", "2", "--subset", "full",
        "--variant", "symmetric", "--interval=2:1",
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: interval 2:1 is empty (lower bound exceeds upper)\n"
    proc = run_proc(
        "deform", "--type", "A", "--rank", "2", "--subset", "full",
        "--variant", "symmetric", "--interval=1:2",
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: interval 1:2 must contain 0 for variant symmetric\n"


def test_negative_interval_syntax():
    proc = run_proc(
        "deform", "--type", "A", "--rank", "2", "--subset", "full",
        "--variant", "symmetric", "--interval=-1:1",
    )
    assert proc.returncode == 0


@pytest.mark.parametrize("bound", [" 1:10", "1:1_0", "1 :10", "+1:10", "1:\u0661\u0660", "1:", ":10"])
def test_interval_bounds_are_ascii_integers(capsys, bound):
    """Each bound is an optional minus sign and ASCII digits, nothing that
    int() would also read: spaces, digit underscores, a plus sign or
    other scripts' digits exit 2 instead of echoing a rewritten interval."""
    code, out, err = run_main(
        capsys, "deform", "--type", "A", "--rank", "2", "--subset", "full",
        "--variant", "positive", f"--interval={bound}", "--json",
    )
    assert (code, out) == (2, "")
    assert err == f"error: interval {bound!r} has non-integer bounds\n"


def test_byte_determinism():
    argv = (
        "char-quasi", "--type", "G", "--rank", "2",
        "--subset", "minus:(3,2)", "--json",
    )
    first = run_proc(*argv)
    second = run_proc(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def _assert_full_is_exponent_product(capsys, family, rank, period, exponents):
    """The full subset answers in process, over period lcm(marks); on every
    residue prime to it the constituent is the product of (q - e) over the
    exponents."""
    code, out, err = run_main(
        capsys, "char-quasi", "--type", family, "--rank", str(rank), "--subset", "full", "--json"
    )
    assert (code, err) == (0, "")
    qp = qp_from_json(json.loads(out)["result"])
    assert qp.period == period
    product = RationalPolynomial((1,))
    for e in exponents:
        product = product * RationalPolynomial((-e, 1))
    for k in range(1, period + 1):
        if math.gcd(k, period) == 1:
            assert qp.constituents[k - 1] == product


def test_e6_full_char_quasi(capsys):
    _assert_full_is_exponent_product(capsys, "E", 6, 6, (1, 4, 5, 7, 8, 11))


@pytest.mark.parametrize(
    "family, rank, exponents",
    [
        ("F", 4, (1, 5, 7, 11)),
        ("E", 7, (1, 5, 7, 9, 11, 13, 17)),
        ("B", 8, tuple(range(1, 16, 2))),
        ("C", 8, tuple(range(1, 16, 2))),
    ],
)
def test_largest_face_route_full_char_quasi(capsys, family, rank, exponents):
    """The same at F4 and E7 (period 12), and at B8 and C8 (period 2),
    whose Weyl groups (|W| = 10,321,920) are the largest under the table
    bound."""
    period = math.lcm(*build_root_system(family, rank).marks)
    assert period == (2 if rank == 8 else 12)
    _assert_full_is_exponent_product(capsys, family, rank, period, exponents)


def _classical_exponents(family, rank):
    """The exponents in closed form: 1..l for A; 1, 3, ..., 2l - 1 for B and
    C; 1, 3, ..., 2l - 3 and l - 1 for D."""
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in "BC":
        return tuple(range(1, 2 * rank, 2))
    return tuple(range(1, 2 * rank - 2, 2)) + (rank - 1,)


@pytest.mark.parametrize(
    "family, rank",
    [("B", 5), ("B", 6), ("B", 7), ("C", 5), ("C", 6), ("C", 7),
     ("D", 5), ("D", 6), ("D", 7), ("D", 8), ("A", 9)],
)
def test_classical_full_char_quasi(capsys, family, rank):
    """The same on B, C and D of ranks 5 to 7, D8 and A9 (period 2, or 1 on
    A), with the exponents in closed form (Kamiya, Takemura and Terao,
    2010: chi on the residues prime to the period is prod (q - e_i))."""
    period = math.lcm(*build_root_system(family, rank).marks)
    assert period == (1 if family == "A" else 2)
    _assert_full_is_exponent_product(
        capsys, family, rank, period, _classical_exponents(family, rank)
    )


REPO_DIR = os.path.dirname(SRC_DIR)


@pytest.mark.parametrize("family", ["B", "C"])
def test_benchmark_sweeps_match_pinned_digests(capsys, family):
    """The compat-sweep workload's answers, digested as the benchmark
    digests them, equal the pinned ones, so a wrong face coefficient fails
    here as well as in the benchmark."""
    code, out, err = run_main(
        capsys, "compat", "--type", family, "--rank", "4", "--subset", "ideal-all", "--json"
    )
    assert (code, err) == (0, "")
    canon = json.dumps(json.loads(out)["result"], sort_keys=True, separators=(",", ":"))
    with open(os.path.join(REPO_DIR, "perfbench", "expected.json")) as fh:
        pinned = json.load(fh)
    assert hashlib.sha256(canon.encode()).hexdigest() == pinned[f"compat-{family}4-ideal-all"]


@pytest.mark.parametrize(
    "subset, constituent",
    [
        ("empty", "q^8"),
        ("ideal:(1,0,1,1,0,0,0,0)", "q^8 - 6q^7 + 11q^6 - 6q^5"),
    ],
)
def test_e8_small_subsets_are_counted(capsys, subset, constituent):
    """E8 passes the Weyl-table bound, so only short subsets of period 1
    answer, counted: the empty set, and the six roots below
    alpha_1 + alpha_3 + alpha_4, an A3 whose polynomial
    q(q - 1)(q - 2)(q - 3) gains q^4 from the free coordinates."""
    code, out, err = run_main(
        capsys, "char-quasi", "--type", "E", "--rank", "8", "--subset", subset
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["period: 1", f"residue 1: {constituent}"]


# Cheap queries over every command, each pinned by the SHA-256 of
# json.dumps([exit code, stdout, stderr]): any byte a user would see that
# changes fails here.
GOLDEN = [
    (
        "compat-B4-ideal-all-json",
        "compat --type B --rank 4 --subset ideal-all --json",
        "a4d835f324e4fd432f0e48114398623eb0082baf63b72754f926d34ea324f9d3",
    ),
    (
        "compat-G2-incompatible",
        "compat --type G --rank 2 --subset (1,0),(1,1),(3,2)",
        "1e5d1c45eb6a0d9ebb4ba6643ca434892cc4f6dbe6434fd5d747ca23d21b23c4",
    ),
    (
        "char-quasi-G2-full-json",
        "char-quasi --type G --rank 2 --subset full --json",
        "8626a22279e288988a38c7b9abc40113b68bf4a5bd2b624c1e0f574f2dd2adee",
    ),
    (
        "char-quasi-E6-full",
        "char-quasi --type E --rank 6 --subset full",
        "ce746f547d9af1460a31c11ba2d0555bc0e57cbca692259fb88e96f1e9446af6",
    ),
    (
        "char-quasi-D5-ideal",
        "char-quasi --type D --rank 5 --subset ideal:(0,1,1,1,0)",
        "4a7ef89258f6391b48fe02fafda55b4de72db6ca8bddbfe202488a1fb07c487e",
    ),
    (
        "char-quasi-G2-minus",
        "char-quasi --type G --rank 2 --subset minus:(3,2)",
        "cb2a2ab64c51545c95b2fb2963dc6897af11f13c9807fb44f0e26ae63003d356",
    ),
    (
        "ehrhart-A5-open",
        "ehrhart --type A --rank 5 --variant open",
        "2da824acd89e93a1d98edcc0692fd0ed01617ca7973e013da887dc78c737f44d",
    ),
    (
        "ehrhart-F4-open-json",
        "ehrhart --type F --rank 4 --variant open --json",
        "3c93d7e68f89e5a65275b29c6dd99681534d0128e5a0842c84db9aa3015fed20",
    ),
    (
        "eulerian-E6-e",
        "eulerian --type E --rank 6 --subset full --variant e",
        "a4e600d819ce902fe4a30b2262e232834f1a9a64d5aeca14a3603f2303d7bb19",
    ),
    (
        "eulerian-E7-e",
        "eulerian --type E --rank 7 --subset full --variant e",
        "6d977bd3767547aa60699985731f57c3c4987de19115e5659325bd398f417730",
    ),
    (
        "eulerian-E6-m",
        "eulerian --type E --rank 6 --subset full --variant m",
        "623c237c515def9884934aff9d673b77b6c848aaffd0c522bd2fe8e629845a9c",
    ),
    (
        "deform-D4-symmetric",
        "deform --type D --rank 4 --subset full --variant symmetric --interval=-1:2",
        "da693c054ce5724f35400984b2ffb87173589b2707ec04e3e4b25f0b88c1ea94",
    ),
    (
        "deform-D4-i-json",
        "deform --type D --rank 4 --subset full --variant i --interval=-1:1 --interval=0:1 --json",
        "82b2f4d030de8e72f50cae4bdbe9414a20228c098e004d85e1801c73e13dafe6",
    ),
    (
        "deform-G2-ii",
        "deform --type G --rank 2 --subset full --variant ii --interval=0:1 --interval=1:2",
        "d2ad03826ab0daac2e80c85926e3cb2db36eac2116485a7edb30557b418cd183",
    ),
    (
        "deform-A2-wide",
        "deform --type A --rank 2 --subset full --variant symmetric --interval=-1000000:1000000",
        "b1adfd5810ad2de5650acdc4f5f4d80a823724f4ecdf894053d1feecd10966f6",
    ),
    (
        "verify-D4-symmetric",
        "verify --type D --rank 4 --subset full --variant symmetric --interval=-1:2",
        "35277899512e5844f7bdef1013113106b6517f8c7cff2261af7d088818526025",
    ),
    (
        "verify-A2-different",
        "verify --type A --rank 2 --subset (1,0) --variant symmetric --interval=0:1",
        "9f6e99279036ceb84670ef85cc2264f1f13a06b82fc4f12ed6e741dd309bf44c",
    ),
    (
        "genfunc-B3-ideal",
        "genfunc --type B --rank 3 --subset ideal:(1,1,0) --terms 18",
        "bf3d6e466ac8bc6d2e74a9d9053af42c720e1801b09157b084fec9d326dfe6c2",
    ),
    (
        "genfunc-G2-too-short",
        "genfunc --type G --rank 2 --subset full --terms 17",
        "52e15bb0220674f6cfb2928b53d2b39f3262ff1cb7b4ad453c2d1a6611e269fd",
    ),
    (
        "char-quasi-E8-cap",
        "char-quasi --type E --rank 8 --subset full",
        "f0a74ac0a5c9f852e0bd1337b646dfe0c98962b4d712442e9a960eb4379b7965",
    ),
    (
        "info-B3-json",
        "info --type B --rank 3 --json",
        "b187bd2e435ad2bd7f85ca559f5bfcbd53d62ef16b5b6e8783fe9d6d65632901",
    ),
]


@pytest.mark.parametrize("argv, digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_outputs(capsys, argv, digest):
    code, out, err = run_main(capsys, *argv.split())
    assert hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest() == digest
