"""Command-line interface: output goldens, JSON schemas, exit codes."""

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfforest import cli, trees
from hopfforest.algebra import Polynomial
from hopfforest.cli import build_parser, run
from hopfforest.hopfspec import (
    CoproductEntry,
    CoproductSpec,
    Generator,
    faa_di_bruno_spec,
    load_spec,
    save_spec,
)
from hopfforest.antipode import antipode_generator
from hopfforest.prelie import PreLieSpec, dualize, grafting_instance, save_prelie
from hopfforest.trees import pool_fill, tree_multiplicity, tree_notation

from json_documents import spec_to_dict
from tree_recursion import recursive_trees
from tree_walkers import height, tree_coefficient, vertex_count, vertex_monomial


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_antipode_text(capsys, fdb6_file):
    code, out, err = invoke(
        capsys,
        "antipode", "--spec", fdb6_file, "--element", "3", "--method", "forest",
    )
    assert code == 0
    assert out == "-1 b3 + 10 b1b2 - 15 b1b1b1\n"
    assert err == ""


@pytest.mark.parametrize("method", ["forest", "dyson-salam", "bogoliubov"])
def test_antipode_methods_from_cli(capsys, fdb6_file, method):
    code, out, _ = invoke(
        capsys,
        "antipode", "--spec", fdb6_file, "--element", "4", "--method", method,
    )
    assert code == 0
    assert out == "-1 b4 + 15 b1b3 + 10 b2b2 - 105 b1b1b2 + 105 b1b1b1b1\n"


def test_antipode_json(capsys, fdb6_file):
    code, out, _ = invoke(
        capsys,
        "antipode", "--spec", fdb6_file, "--element", "3",
        "--method", "bogoliubov", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "element": 3,
        "method": "bogoliubov",
        "terms": [
            {"monomial": [3], "coeff": "-1"},
            {"monomial": [1, 2], "coeff": "10"},
            {"monomial": [1, 1, 1], "coeff": "-15"},
        ],
    }


def test_antipode_output_is_deterministic(capsys, fdb6_file):
    argv = (
        "antipode", "--spec", fdb6_file, "--element", "5",
        "--method", "forest", "--format", "json",
    )
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_coproduct_text_and_json(capsys, fdb6_file):
    code, out, _ = invoke(
        capsys, "coproduct", "--spec", fdb6_file, "--element", "3"
    )
    assert code == 0
    assert out == "4 b1 (x) b2 + 3 b1 (x) b1b1 + 6 b2 (x) b1\n"

    code, out, _ = invoke(
        capsys,
        "coproduct", "--spec", fdb6_file, "--element", "3", "--iterate", "3",
    )
    assert code == 0
    assert out == "18 b1 (x) b1 (x) b1\n"

    code, out, _ = invoke(
        capsys,
        "coproduct", "--spec", fdb6_file, "--element", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "element": 2,
        "iterate": 2,
        "terms": [{"factors": [[1], [1]], "coeff": "3"}],
    }


def test_trees_listing(capsys, fdb6_file):
    code, out, _ = invoke(capsys, "trees", "--spec", fdb6_file, "--element", "3")
    assert code == 0
    assert out.splitlines() == [
        "N(3;1)[L(1),L(1)] l=3 h=2 sign=-1 lambda=3 v=b1b1b1",
        "N(3;1)[N(2;1)[L(1)]] l=3 h=3 sign=-1 lambda=12 v=b1b1b1",
        "N(3;1)[L(2)] l=2 h=2 sign=+1 lambda=4 v=b1b2",
        "N(3;2)[L(1)] l=2 h=2 sign=+1 lambda=6 v=b1b2",
        "L(3) l=1 h=1 sign=-1 lambda=1 v=b3",
    ]


def _oracle_trees_text(spec, i):
    """What `trees` prints for b_i, from the recursive enumerator and one
    walker per statistic: no pool, rank, stored coefficient or shared walk."""
    lines = []
    for t in recursive_trees(spec, i):
        l = vertex_count(t)
        lines.append(
            f"{tree_notation(t)} l={l} h={height(t)} sign={'-1' if l % 2 else '+1'} "
            f"lambda={tree_coefficient(t, spec)} v={vertex_monomial(t).render()}\n"
        )
    return "".join(lines)


def _negative_fractional(spec):
    """spec with row k's coefficient c made -c / (k % 4 + 2)."""
    rows = [
        CoproductEntry(e.source, e.left, e.right, -e.coeff / (k % 4 + 2))
        for k, e in enumerate(spec.entries)
    ]
    return CoproductSpec(f"{spec.name}-negative", spec.generators.values(), rows)


@pytest.mark.parametrize(
    "make, top_only",
    [
        (lambda: faa_di_bruno_spec(7), False),
        (lambda: dualize(grafting_instance(5), 5), False),
        (lambda: _negative_fractional(faa_di_bruno_spec(6)), False),
        (lambda: _chain_table(120, _right_deep), True),
    ],
    ids=["fdb-7", "grafting-5-dual", "fdb-6-negative-fractional", "chain-120"],
)
def test_trees_prints_what_the_recursive_oracle_prints(capsys, tmp_path, make, top_only):
    # λ is carried by the pool fill and l, h and v read in one walk; the
    # oracle reads each row by key and walks once per statistic.
    spec = make()
    path = tmp_path / "spec.json"
    path.write_text(save_spec(spec))
    ids = spec.generator_ids()
    for i in ids[-1:] if top_only else ids:
        code, out, err = invoke(capsys, "trees", "--spec", str(path), "--element", str(i))
        assert (code, err) == (0, "")
        assert out == _oracle_trees_text(spec, i)


@pytest.mark.parametrize("n", [5, 6])
def test_the_fill_sums_to_the_forest_antipode(n):
    # S(b_i) = sum over realized trees of (-1)^l λ multiplicity v
    spec = dualize(grafting_instance(n), n)
    for i in spec.generator_ids():
        forest = Polynomial(
            (vertex_monomial(t), (-1) ** vertex_count(t) * lam * tree_multiplicity(t))
            for t, lam in zip(*pool_fill(spec, i))
        )
        assert forest == antipode_generator(spec, i, "forest")


def test_linearizations_listing(capsys, fdb6_file):
    code, out, _ = invoke(
        capsys,
        "linearizations", "--spec", fdb6_file, "--element", "3", "--k", "2",
    )
    assert code == 0
    assert out.splitlines() == [
        "N(3;1)[L(1),L(1)] k=2 count=1",
        "  chain: 1 b1 (x) b1b1",
        "N(3;1)[N(2;1)[L(1)]] k=2 count=0",
        "N(3;1)[L(2)] k=2 count=1",
        "  chain: 1 b1 (x) b2",
        "N(3;2)[L(1)] k=2 count=1",
        "  chain: 1 b2 (x) b1",
        "L(3) k=2 count=0",
    ]


def test_verify_passes(capsys, fdb6_file):
    code, out, _ = invoke(
        capsys, "verify", "--spec", fdb6_file, "--max-degree", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "structural validation: ok",
        "coassociativity: ok",
        "counit: ok",
        "method agreement: ok",
        "antipode convolution (forest): ok",
        "antipode convolution (dyson-salam): ok",
        "antipode convolution (bogoliubov): ok",
        "VERIFY: PASS",
    ]


def test_verify_flags_corruption(capsys, tmp_path):
    doc = spec_to_dict(faa_di_bruno_spec(4))
    doc["coproduct"][0]["coeff"] = str(
        int(doc["coproduct"][0]["coeff"]) + 1
    )
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(
        capsys, "verify", "--spec", str(path), "--max-degree", "4"
    )
    assert code == 1
    assert "VERIFY: FAIL" in out
    assert "FAIL" in out


def test_compare(capsys, fdb6_file):
    code, out, _ = invoke(
        capsys, "compare", "--spec", fdb6_file, "--max-degree", "6"
    )
    assert code == 0
    assert out.splitlines() == [
        "b1: dyson-salam=1 forest=1 agree=yes",
        "b2: dyson-salam=2 forest=2 agree=yes",
        "b3: dyson-salam=6 forest=5 agree=yes",
        "b4: dyson-salam=16 forest=12 agree=yes",
        "b5: dyson-salam=53 forest=33 agree=yes",
        "b6: dyson-salam=166 forest=90 agree=yes",
    ]


def test_antipode_and_compare_list_no_trees(capsys, tmp_path, monkeypatch):
    # The forest route and the compare counts sum and count the realized
    # trees without listing them, so they run with enumeration unavailable.
    def refuse(spec, i):
        raise AssertionError("the tree fill was called")

    # every module that imported them holds its own bindings
    for fill in ("enumerate_trees", "pool_fill"):
        original = getattr(trees, fill)
        for name, module in list(sys.modules.items()):
            if name.startswith("hopfforest") and getattr(module, fill, None) is original:
                monkeypatch.setattr(module, fill, refuse)
    path = tmp_path / "fdb8.json"
    path.write_text(save_spec(faa_di_bruno_spec(8)))
    code, out, _ = invoke(
        capsys, "antipode", "--spec", str(path), "--element", "8", "--method", "forest"
    )
    assert code == 0 and out.startswith("-1 b8 + ")
    code, out, _ = invoke(capsys, "compare", "--spec", str(path), "--max-degree", "8")
    assert code == 0
    assert out.splitlines()[-1] == "b8: dyson-salam=1885 forest=766 agree=yes"
    with pytest.raises(AssertionError):
        invoke(capsys, "trees", "--spec", str(path), "--element", "8")


def test_gen_fdb(capsys):
    code, out, _ = invoke(capsys, "gen", "fdb", "--max-degree", "3")
    assert code == 0
    assert out == save_spec(faa_di_bruno_spec(3))
    assert load_spec(out).entries == faa_di_bruno_spec(3).entries


def test_dualize_roundtrip(capsys, graft4_file, dual4):
    code, out, _ = invoke(
        capsys, "dualize", "--prelie", graft4_file, "--max-degree", "4"
    )
    assert code == 0
    assert out == save_spec(dual4)
    assert load_spec(out).validate() == []


def test_prelie_verify_passes(capsys, graft4_file):
    code, out, _ = invoke(capsys, "prelie-verify", "--prelie", graft4_file)
    assert code == 0
    assert out.splitlines() == [
        "preLie identity: ok",
        "product associativity: ok",
        "length filtration: ok",
        "VERIFY: PASS",
    ]


def broken_prelie_text():
    basis = [Generator(i, i) for i in range(1, 5)]
    products = {
        (1, 1): Polynomial.variable(2),
        (1, 2): Polynomial.variable(3),
        (2, 1): Polynomial.variable(3),
        (2, 2): Polynomial.variable(4),
        (3, 1): Polynomial.variable(4) * 2,
        (1, 3): Polynomial.variable(4),
    }
    return save_prelie(PreLieSpec("broken", basis, products, 4))


def test_prelie_verify_fails_on_non_prelie_table(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(broken_prelie_text())
    code, out, err = invoke(capsys, "prelie-verify", "--prelie", str(path))
    assert code == 1
    # The enveloping product of a non-preLie table is not associative, but
    # it still respects the length filtration.
    assert out.splitlines() == [
        "preLie identity: FAIL",
        "product associativity: FAIL",
        "length filtration: ok",
        "VERIFY: FAIL",
    ]
    assert err  # the offending triples are reported on stderr


def test_dualize_refuses_non_prelie_table(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(broken_prelie_text())
    code, out, err = invoke(
        capsys, "dualize", "--prelie", str(path), "--max-degree", "4"
    )
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("truncation", [0, True, None])
def test_bad_prelie_truncation_is_a_structural_error(capsys, tmp_path, truncation):
    doc = json.loads(save_prelie(grafting_instance(3)))
    doc["truncation"] = truncation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "prelie-verify", "--prelie", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: invalid preLie spec: truncation must be a positive integer, "
        f"got {truncation!r}\n"
    )


def test_exit_code_two_on_bad_input(capsys, fdb6_file, graft4_file, tmp_path):
    # Unknown generator id.
    code, _, err = invoke(
        capsys,
        "antipode", "--spec", fdb6_file, "--element", "9", "--method", "forest",
    )
    assert code == 2 and "error:" in err

    # Bad iterate / k values.
    for argv in (
        ("coproduct", "--spec", fdb6_file, "--element", "2", "--iterate", "0"),
        ("linearizations", "--spec", fdb6_file, "--element", "2", "--k", "0"),
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 2 and "error:" in err

    # Every command that takes --max-degree names the flag alike.
    for argv in (
        ("verify", "--spec", fdb6_file),
        ("compare", "--spec", fdb6_file),
        ("gen", "fdb"),
        ("dualize", "--prelie", graft4_file),
    ):
        code, out, err = invoke(capsys, *argv, "--max-degree", "0")
        assert (code, out, err) == (2, "", "error: --max-degree must be >= 1, got 0\n")

    # Missing and malformed spec files.
    code, _, err = invoke(
        capsys,
        "antipode", "--spec", str(tmp_path / "nope.json"),
        "--element", "2", "--method", "forest",
    )
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = invoke(
        capsys, "antipode", "--spec", str(bad), "--element", "2", "--method", "forest"
    )
    assert code == 2 and "error:" in err


UNREADABLE_FILES = {
    "deeply nested": "[" * 200000,
    "not UTF-8": b'{"name": "\xff"}',
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_FILES))
@pytest.mark.parametrize(
    "argv",
    [("verify", "--spec", "{}", "--max-degree", "2"), ("prelie-verify", "--prelie", "{}")],
    ids=["verify", "prelie-verify"],
)
def test_unreadable_input_file_exits_two(capsys, tmp_path, kind, argv):
    path = tmp_path / "input.json"
    content = UNREADABLE_FILES[kind]
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = invoke(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("coeff", ["0.5", "1e3", "1e200000"])
def test_coefficients_outside_the_grammar_exit_two(capsys, tmp_path, coeff):
    doc = spec_to_dict(faa_di_bruno_spec(3))
    doc["coproduct"][0]["coeff"] = coeff
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    prelie = json.loads(save_prelie(grafting_instance(3)))
    prelie["products"][0]["result"][0]["coeff"] = coeff
    prelie_path = tmp_path / "prelie.json"
    prelie_path.write_text(json.dumps(prelie))
    for argv in (
        ("antipode", "--spec", str(spec_path), "--element", "3", "--method", "forest"),
        ("prelie-verify", "--prelie", str(prelie_path)),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "bad coefficient" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no integer-to-text digit limit",
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coefficients_too_large_to_print_exit_two(capsys, tmp_path, fmt):
    # Each coefficient parses, but products of them pass the digit limit.
    doc = spec_to_dict(faa_di_bruno_spec(3))
    for row in doc["coproduct"]:
        row["coeff"] = "9" * 3000
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(
        capsys,
        "antipode", "--spec", str(path), "--element", "3",
        "--method", "bogoliubov", "--format", fmt,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too big to print" in err


def test_unsorted_right_leg_exits_two(capsys, tmp_path):
    doc = spec_to_dict(faa_di_bruno_spec(4))
    row = next(r for r in doc["coproduct"] if r["right"] == [1, 2])
    row["right"] = [2, 1]
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "verify", "--spec", str(path), "--max-degree", "4")
    assert code == 2
    assert out == ""
    assert "right must be sorted ascending" in err


ELEMENT_COMMANDS = {
    "coproduct": ("coproduct",),
    "antipode-forest": ("antipode", "--method", "forest"),
    "antipode-bogoliubov": ("antipode", "--method", "bogoliubov"),
    "antipode-dyson-salam": ("antipode", "--method", "dyson-salam"),
    "trees": ("trees",),
    "linearizations": ("linearizations", "--k", "2"),
}


@pytest.mark.parametrize("element", [0, -3, 99])
@pytest.mark.parametrize("command", sorted(ELEMENT_COMMANDS))
def test_unknown_element_has_one_message(capsys, fdb6_file, command, element):
    argv = ELEMENT_COMMANDS[command] + ("--spec", fdb6_file, f"--element={element}")
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: unknown generator id {element}\n"


def _chain_table(n, row):
    """b_1..b_n, deg b_i = i, and for each i >= 2 the one row row(i), of
    coefficient 1.  It passes structural validation but is not coassociative
    (bench/DESIGN.md): it only makes a table as deep as it is long."""
    return CoproductSpec(
        "chain",
        [Generator(i, i) for i in range(1, n + 1)],
        [CoproductEntry(*row(i), 1) for i in range(2, n + 1)],
    )


def _right_deep(i):
    return (i, 1, (i - 1,))


def _left_deep(i):
    return (i, i - 1, (1,))


@pytest.mark.parametrize("command", ["trees", "linearizations"])
def test_a_chain_deeper_than_the_recursion_limit_lists_every_tree(capsys, tmp_path, command):
    # The realized trees of b_n in the right-deep chain nest n levels deep.
    # Listing them fills each id's trees bottom-up and peels levels in a
    # loop, so no step recurses once per level; the limit is lowered
    # instead of the chain lengthened.  Only the n-vertex chain has an
    # n-linearization.
    n = 300
    path = tmp_path / "chain.json"
    path.write_text(save_spec(_chain_table(n, _right_deep)))
    argv = ("--spec", str(path), "--element", str(n))
    ks = [()] if command == "trees" else [("--k", str(k)) for k in (2, n)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        runs = [invoke(capsys, command, *argv, *k) for k in ks]
    finally:
        sys.setrecursionlimit(limit)
    lines = n if command == "trees" else n + 1
    assert [(code, err, len(out.splitlines())) for code, out, err in runs] == [
        (0, "", lines)
    ] * len(ks)
    if command == "linearizations":
        counts = [line.split(" count=")[1] for line in runs[1][1].splitlines() if " count=" in line]
        assert counts == ["1"] + ["0"] * (n - 1)


def test_a_120_level_chain_lists_every_tree(capsys, tmp_path):
    # b_n of the right-deep chain has one realized tree per chain length,
    # listed longest first.  Each pool is sorted by rank keys, which compare
    # in steps that do not grow with depth, where comparing nested tuples
    # walks down the whole depth.  Only the 2-vertex chain has a
    # 2-linearization.
    n = 120
    path = tmp_path / "chain.json"
    path.write_text(save_spec(_chain_table(n, _right_deep)))
    argv = ("--spec", str(path), "--element", str(n))
    code, out, err = invoke(capsys, "trees", *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split(" l=")[1].split()[0] for line in lines] == [
        str(n - k) for k in range(n)
    ]
    assert lines[0].startswith(f"N({n};1)[N({n - 1};1)[")
    assert lines[-1] == f"L({n}) l=1 h=1 sign=-1 lambda=1 v=b{n}"
    code, out, err = invoke(capsys, "linearizations", *argv, "--k", "2")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == n + 1
    assert lines[-3:] == [
        f"N({n};1)[L({n - 1})] k=2 count=1",
        f"  chain: 1 b1 (x) b{n - 1}",
        f"L({n}) k=2 count=0",
    ]


@pytest.mark.parametrize(
    "method, row",
    [("forest", _right_deep), ("bogoliubov", _left_deep)],
    ids=["forest-right-deep", "bogoliubov-left-deep"],
)
def test_antipode_of_a_table_deeper_than_the_recursion_limit(capsys, tmp_path, method, row):
    # Each route walks its own leg bottom-up, so a chain along that leg
    # longer than the recursion limit still evaluates.  The limit is lowered
    # instead of the chain lengthened: the forest route's cost is cubic in
    # the chain length.  S(b_n) = sum over k < n of (-1)^(k+1) b1^k b_(n-k).
    n = 300
    path = tmp_path / "chain.json"
    path.write_text(save_spec(_chain_table(n, row)))
    argv = ("antipode", "--spec", str(path), "--element", str(n), "--method", method)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, out, err = invoke(capsys, *argv, "--format", "json")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    terms = json.loads(out)["terms"]
    assert len(terms) == n
    assert all(t["coeff"] == str((-1) ** len(t["monomial"])) for t in terms)
    assert sorted(t["monomial"] for t in terms) == sorted(
        [1] * k + [n - k] for k in range(n)
    )


def test_verify_of_a_table_with_more_generators_than_the_recursion_limit(capsys, tmp_path):
    # A flat table nests nothing, so it verifies however many generators it
    # has; the limit is lowered instead of the table widened.
    n = 300
    path = tmp_path / "flat.json"
    flat = CoproductSpec("flat", [Generator(i, 1) for i in range(1, n + 1)], [])
    path.write_text(save_spec(flat))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, out, err = invoke(
            capsys, "verify", "--spec", str(path), "--max-degree", "1"
        )
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "structural validation: ok",
        "coassociativity: ok",
        "counit: ok",
        "method agreement: ok",
        "antipode convolution (forest): ok",
        "antipode convolution (dyson-salam): ok",
        "antipode convolution (bogoliubov): ok",
        "VERIFY: PASS",
    ]


def test_argparse_passthrough(capsys, fdb6_file):
    # Unknown method is an argparse usage error (exit 2); --help exits 0.
    code, _, err = invoke(
        capsys,
        "antipode", "--spec", fdb6_file, "--element", "2", "--method", "magic",
    )
    assert code == 2
    assert "invalid choice" in err
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "antipode" in out


# Arguments each subcommand accepts, so that one more word is a usage error
# of the top-level parser.
_ACCEPTED = {
    "antipode": ["--spec", "s", "--element", "1", "--method", "forest"],
    "coproduct": ["--spec", "s", "--element", "1"],
    "trees": ["--spec", "s", "--element", "1"],
    "linearizations": ["--spec", "s", "--element", "1", "--k", "1"],
    "verify": ["--spec", "s", "--max-degree", "1"],
    "compare": ["--spec", "s", "--max-degree", "1"],
    "gen": ["fdb", "--max-degree", "1"],
    "dualize": ["--prelie", "p", "--max-degree", "1"],
    "prelie-verify": ["--prelie", "p"],
}


_ANTIPODE = _ACCEPTED["antipode"]

#: Near misses of a plain argv that the parser refuses or answers with help:
#: other spellings of a flag, the parser's own words, a repeated flag and
#: values int() or the choices refuse.
_NEAR_MISSES = [
    ["antipode", "--spec", "s", "--element=x", "--method", "forest"],
    ["antipode", "--spec", "s", "--elem", "x", "--method", "forest"],
    ["antipode", "--", "--spec", "s"],
    ["antipode", "--spec", "s", "--element", "", "--method", "forest"],
    ["antipode", *_ANTIPODE[:-1], "magic"],
    ["antipode", *_ANTIPODE, "--format", "xml"],
    ["verify", "--spec", "s", "--max-degree", "1", "--max-degree", "x"],
    ["verify", "--spec", "s", "--max-degree", "1", "--"],
    ["gen", "fdb", "--max-degree", "1e3"],
    ["linearizations", "--spec", "s", "--element", "1", "--k", "-"],
    # values int() reads, which the parser reads too, before a missing flag
    *(["verify", "--max-degree", value, "--spec"] for value in ("-1", " 7", "+1", "1_0", "\u0663")),
    *([name, *accepted, "-h"] for name, accepted in _ACCEPTED.items()),
    *([name, *accepted, accepted[-2]] for name, accepted in _ACCEPTED.items()),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [],
        ["bogus"],
        ["gen", "fdb", "--help"],
        ["gen", "bogus"],
        ["gen", "fdb"],
        *([name, "--help"] for name in _ACCEPTED),
        *([name] for name in _ACCEPTED),
        *([name, "--element", "x"] for name in _ACCEPTED),
        *([name, *accepted, "extra"] for name, accepted in _ACCEPTED.items()),
        *_NEAR_MISSES,
    ],
)
def test_run_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        expect = (int(exc.code or 0), captured.out, captured.err)
    assert expect[0] in (0, 2) and (expect[1] or expect[2])
    built = []

    def recording():
        built.append(())
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", recording)
    assert invoke(capsys, *argv) == expect
    assert built == [()]


def _well_formed(spec, prelie):
    """A plain argv of every subcommand, some with their optional flags and
    some with the flags out of --help order."""
    return [
        ["antipode", "--spec", spec, "--element", "4", "--method", "forest"],
        ["antipode", "--format", "json", "--method", "bogoliubov", "--element", "3",
         "--spec", spec],
        ["coproduct", "--spec", spec, "--element", "4", "--iterate", "3", "--format", "json"],
        ["coproduct", "--element", "3", "--spec", spec],
        ["trees", "--spec", spec, "--element", "3"],
        ["linearizations", "--spec", spec, "--element", "3", "--k", "2"],
        ["verify", "--spec", spec, "--max-degree", "4"],
        ["compare", "--max-degree", "4", "--spec", spec],
        ["gen", "fdb", "--max-degree", "4"],
        ["dualize", "--prelie", prelie, "--max-degree", "4"],
        ["prelie-verify", "--prelie", prelie],
    ]


def test_a_plain_argv_of_every_subcommand_builds_no_parser(
    capsys, monkeypatch, fdb6_file, graft4_file
):
    built = []

    def recording():
        built.append(())
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", recording)
    runs = _well_formed(fdb6_file, graft4_file)
    assert {argv[0] for argv in runs} == set(cli._COMMANDS)
    for argv in runs:
        plain = invoke(capsys, *argv)
        assert built == [] and plain[0] == 0 and plain[1]
        # the same command through the parser: each flag as --flag=value
        pairs = argv[2:] if argv[0] == "gen" else argv[1:]
        head = argv[: len(argv) - len(pairs)]
        parsed = [*head, *(f"{f}={v}" for f, v in zip(pairs[::2], pairs[1::2]))]
        assert invoke(capsys, *parsed) == plain
        assert built == [()]
        built.clear()


_NEAR_FLAGS = ["--element=3", "--elem", "--", "-h", "--help", "extra", "fdb"]
_NEAR_VALUES = [
    "-1", " 7", "+1", "1_0", "\u0663", "", "-", "-h", "--", "magic", "xml", "1e3", "s", "json"
]


def _good_values(options):
    if "choices" in options:
        return list(options["choices"])
    return ["1", "12"] if "type" in options else ["s", "fdb"]


@st.composite
def _argvs(draw):
    """An argv from a subcommand's own flags in any order, some left out,
    each with a value its flag takes or, one time in four, a near miss; then
    up to two stray tokens inserted: near-miss flags or values, a repeated
    flag or a non-str token."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    arguments = cli._COMMANDS[name][2]
    argv = [name, "fdb"] if name == "gen" else [name]
    for flag, options in draw(st.permutations(arguments)):
        if draw(st.sampled_from([True, True, True, False])):
            near = draw(st.sampled_from([True, False, False, False]))
            argv += [flag, draw(st.sampled_from(_NEAR_VALUES if near else _good_values(options)))]
    flags = [flag for flag, _ in arguments]
    strays = st.sampled_from([*_NEAR_FLAGS, *_NEAR_VALUES, *flags, 5])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), draw(strays))
    return argv


@settings(max_examples=600, derandomize=True, database=None)
@given(_argvs())
@example(["prelie-verify", "--prelie", "-h"])
@example(["prelie-verify", "--prelie", "--"])
@example(["verify", "--spec", "s", "--max-degree", "-1"])
@example(["gen", "fdb", "--max-degree", "\u0663"])
@example(["antipode", "--spec", "s", "--element", "1", "--method", "forest", "--format", 5])
def test_the_plain_reader_is_the_parser_or_declines(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(build_parser().parse_args(argv))
