"""Coproduct tables: construction, validation, the built-in composition
family, and the JSON interchange format."""

import ast
import copy
import json
import os
import pickle
import re
import subprocess
import sys
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfforest
from hopfforest.algebra import Polynomial, mono
from hopfforest.antipode import antipode_generator
from hopfforest.coproduct import coassociativity_report, counit_report
from hopfforest.errors import InputError
from hopfforest.hopfspec import (
    CoproductEntry,
    CoproductSpec,
    Generator,
    faa_di_bruno_spec,
    load_spec,
    load_spec_file,
    save_spec,
    spec_from_dict,
    sym_spec,
)
from hopfforest.prelie import brace_action, dualize, grafting_instance, prelie_from_dict

from json_documents import spec_to_dict
from monomial_walks import witt


def partitions_with_sizes(n, sizes):
    """Independent closed form: set partitions of an n-set whose block sizes
    form the given multiset equal n! / (prod s!  *  prod mult(s)!)."""
    assert sum(sizes) == n
    count = Fraction(factorial(n))
    for s in sizes:
        count /= factorial(s)
    for s in set(sizes):
        count /= factorial(sizes.count(s))
    assert count.denominator == 1
    return int(count)


def test_generator_display():
    assert Generator(2, 2).display() == "b2"
    assert Generator(2, 2, label="x").display() == "x"


def test_generator_fields_repr_and_read_only_attributes():
    g = Generator(3, 2, label="x")
    assert (g.id, g.degree, g.label) == (3, 2, "x")
    assert Generator(3, 2).label is None
    assert repr(g) == "Generator(id=3, degree=2, label='x')"
    assert g == Generator(id=3, degree=2, label="x") and hash(g) == hash(Generator(3, 2, "x"))
    for field in ("id", "degree", "label"):
        with pytest.raises(AttributeError):
            setattr(g, field, 1)


def test_entry_normalizes():
    e = CoproductEntry(3, 1, [2, 1, 1], 5)
    assert e.right == (1, 1, 2) and type(e.right) is tuple
    assert e.coeff == Fraction(5) and type(e.coeff) is Fraction
    assert e == (3, 1, (1, 1, 2), Fraction(5)) and isinstance(e, tuple)
    assert (e.source, e.left, e.right, e.coeff) == tuple(e)
    assert CoproductEntry(2, 1, (1,), Fraction(3, 4)).coeff == Fraction(3, 4)


def test_entry_is_read_only():
    e = CoproductEntry(3, 1, (1, 2), 5)
    for field in ("source", "left", "right", "coeff", "extra"):
        with pytest.raises(AttributeError):
            setattr(e, field, 1)
    with pytest.raises(AttributeError):
        del e.coeff
    assert e == (3, 1, (1, 2), 5)


def test_entry_round_trips_through_pickle_and_deepcopy():
    e = CoproductEntry(3, 1, (1, 2), Fraction(-3, 4))
    for copied in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert type(copied) is CoproductEntry
        assert copied == e and hash(copied) == hash(e)
        assert (copied.right, copied.coeff) == ((1, 2), Fraction(-3, 4))


@pytest.mark.parametrize("source, left", [(True, 1), (2, True), (0, 1), (2, 1.0)])
def test_entry_ids_are_positive_ints_as_the_loader_reads_them(source, left):
    with pytest.raises(InputError, match="generator indices must be positive integers"):
        CoproductEntry(source, left, (1,), 1)


def test_entry_ids_are_named_as_given_before_any_sort():
    # the right leg's ids too: a bad id is named, not compared
    for source, left, right, bad in [
        ("a", 1, [1], "'a'"), (True, 1, [1], "True"), (2, None, [1], "None"), (2, 1, [1, "a"], "'a'")
    ]:
        with pytest.raises(InputError, match=f"positive integers, got {bad}$"):
            CoproductEntry(source, left, right, 1)


@pytest.mark.parametrize("coeff", [0.1, True, "3", None])
def test_entry_coefficient_follows_the_algebra_rule(coeff):
    # The rule Polynomial applies: an int (not a bool) or a Fraction.
    with pytest.raises(InputError):
        CoproductEntry(2, 1, (1,), coeff)
    with pytest.raises(InputError):
        Polynomial({mono(1): coeff})


def test_faa_di_bruno_low_degrees(fdb6):
    assert fdb6.name == "faa-di-bruno-6"
    assert fdb6.generator_ids() == [1, 2, 3, 4, 5, 6]
    assert fdb6.degree(4) == 4
    rows = {
        1: [],
        2: [(2, 1, (1,), 3)],
        3: [(3, 1, (1, 1), 3), (3, 1, (2,), 4), (3, 2, (1,), 6)],
        4: [
            (4, 1, (3,), 5),
            (4, 1, (1, 2), 10),
            (4, 2, (1, 1), 15),
            (4, 2, (2,), 10),
            (4, 3, (1,), 10),
        ],
    }
    for i, expected in rows.items():
        got = [(e.source, e.left, e.right, e.coeff) for e in fdb6.entries_for(i)]
        assert sorted(got) == sorted(expected)


def test_faa_di_bruno_coefficients_match_partition_counts():
    spec = faa_di_bruno_spec(7)
    assert not spec.validate()
    for i in spec.generator_ids():
        for e in spec.entries_for(i):
            blocks = list(e.right) if e.right != () else []
            sizes = sorted([p + 1 for p in blocks] + [1] * (e.left + 1 - len(blocks)))
            assert sum(sizes) == i + 1
            assert e.coeff == partitions_with_sizes(i + 1, sizes)


def test_generators_are_frozen_after_construction():
    spec = faa_di_bruno_spec(3)
    with pytest.raises(TypeError):
        spec.generators[2] = Generator(2, 5)
    with pytest.raises(TypeError):
        del spec.generators[1]
    assert spec.validate() == []


def test_keywords_reach_the_memoized_functions():
    graft4 = grafting_instance(4)
    by_position = brace_action(graft4, 2, mono(1, 1))
    memo = dict(graft4._frame.braces)
    assert brace_action(graft4, 2, right=mono(1, 1)) == by_position
    # the keyword call read the frame's memo: it stored and replaced nothing
    braces = graft4._frame.braces
    assert len(braces) == len(memo) and all(braces[k] is v for k, v in memo.items())
    assert brace_action(spec=grafting_instance(4), i=2, right=mono(1, 1)) == by_position
    spec = faa_di_bruno_spec(4)
    by_position = antipode_generator(spec, 3, "bogoliubov")
    assert antipode_generator(spec, i=3, method="bogoliubov") == by_position
    assert antipode_generator(spec, 3, method="forest") == antipode_generator(spec, 3)


def test_no_functools_cache_in_the_package():
    # One memo mechanism: each memo is a named dict of its owner, a packed
    # frame (spec._frame of a coproduct or a preLie spec) or one call
    # (antipode_poly's products).  So nothing caches through functools, a
    # decorator or a generic _cache attribute.
    caches = {"lru_cache", "cache"}
    plain = {"property", "classmethod", "staticmethod"}
    found = []
    for path in sorted(Path(hopfforest.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.name, a.name) for a in node.names if a.name in caches]
            elif isinstance(node, ast.Attribute) and (
                node.attr == "_cache"
                or node.attr in caches
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                found.append((path.name, node.attr))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += [
                    (path.name, ast.unparse(d))
                    for d in node.decorator_list
                    if not (isinstance(d, ast.Name) and d.id in plain)
                ]
    assert found == []


def test_no_dataclasses_in_the_package():
    # Records are tuples (tuple subclasses or NamedTuples).
    found = []
    for path in sorted(Path(hopfforest.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [path.name for a in node.names if a.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(path.name)
    assert found == []


#: Module-level definitions and class members that neither a command nor
#: the benchmark reaches, kept on purpose.
UNREACHED_ON_PURPOSE = {
    "sym_spec": "the closed-form symmetric-function family of CI and Tier-1",
}


def _definitions(node: ast.AST) -> list[str]:
    """The names a module-level or class-body statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_package_definition_is_reached_from_a_command_or_the_benchmark():
    # The package is what its commands reach: starting from the console
    # script (cli.main) and from every identifier bench/*.py uses (in code,
    # or in strings such as the tracer's "Tensor.multiplied_out"), follow
    # names through the bodies of module-level definitions.  A class member
    # other than a dunder counts as reached once its name is, as an
    # attribute or anywhere else, and only then is its body followed; the
    # dunders, which Python calls itself, come with their class.
    repo = Path(__file__).resolve().parents[1]
    defined: dict[str, list] = {}
    for path in sorted((repo / "src" / "hopfforest").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for top in (node, *members):
                for name in _definitions(top):
                    if not _dunder(name):
                        defined.setdefault(name, []).append(top)
    todo = {"main"}
    for path in (repo / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.alias):
                todo.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                todo.update(re.findall(r"\w+", node.value))
            else:
                todo.update(_names_used(node))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defined.get(name, ()):
                todo.update(n for sub in _followed(node) for n in _names_used(sub))
    assert sorted(defined.keys() - reached) == sorted(UNREACHED_ON_PURPOSE)


def _followed(node: ast.AST):
    """The nodes of a reached definition whose names it reaches: all of it,
    but of a class only what lies outside its members other than dunders."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    own = [n for n in node.body if all(map(_dunder, _definitions(n)))]
    tops = [*node.bases, *node.keywords, *node.decorator_list, *own]
    return [sub for top in tops for sub in ast.walk(top)]


def _names_used(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    return [node.attr] if isinstance(node, ast.Attribute) else []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; before = set(sys.modules); import hopfforest.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    root = str(Path(hopfforest.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": root},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


def test_a_reimported_package_frees_the_old_one():
    # Dropping every hopfforest module and importing again must leave
    # nothing holding the old classes (a module-level typing alias of
    # package classes once did), or each re-import keeps a whole
    # generation of the package alive.
    code = (
        "import gc, sys, weakref\n"
        "import hopfforest.cli\n"
        "refs = [weakref.ref(sys.modules['hopfforest.trees'].DecoratedTree),\n"
        "        weakref.ref(sys.modules['hopfforest.algebra'].Polynomial)]\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'hopfforest']:\n"
        "    del sys.modules[name]\n"
        "import hopfforest.cli\n"
        "gc.collect()\n"
        "print([ref() is None for ref in refs])\n"
    )
    root = str(Path(hopfforest.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": root},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[True, True]\n"


def test_faa_di_bruno_rejects_bad_degree():
    for bad in (0, True):
        with pytest.raises(InputError, match=f"max_degree must be >= 1, got {bad}"):
            faa_di_bruno_spec(bad)


def test_sym_table_is_a_hopf_table():
    spec = sym_spec(8)
    assert coassociativity_report(spec, 8) == []
    assert counit_report(spec, 8) == []
    rows = [(e.left, e.right) for e in spec.entries_for(4)]
    assert rows == [(1, (3,)), (2, (2,)), (3, (1,))]
    for bad in (0, True):
        with pytest.raises(InputError, match=f"n must be >= 1, got {bad}"):
            sym_spec(bad)


def test_coefficient_lookup(fdb6):
    # a row's coefficient is read off the key-sorted entries
    rows = {e[:3]: e.coeff for e in fdb6.entries}
    assert rows[3, 1, (2,)] == 4
    assert (3, 1, (3,)) not in rows
    assert fdb6.monomial_degree((1, 1, 2)) == 4
    with pytest.raises(InputError):
        fdb6.entries_for(9)
    with pytest.raises(InputError):
        fdb6.degree(0)


def _grafting_dual():
    return dualize(grafting_instance(6), 6)


def _spec(generators, entries):
    return CoproductSpec("t", tuple(generators), tuple(entries))


def test_validate_flags_each_violation():
    g = (Generator(1, 1), Generator(2, 2))
    assert _spec(g, [CoproductEntry(2, 1, (1,), 3)]).validate() == []
    cases = [
        ((Generator(1, 1), Generator(1, 2)), [], "duplicate generator id 1"),
        ((Generator(1, 0),), [], "generator 1 has degree 0"),
        # what load_spec refuses, the constructor refuses
        ((Generator(0, 1), Generator(2, 2)), [], "generator ids must be positive integers, got 0"),
        ((Generator(True, 1),), [], "generator ids must be positive integers, got True"),
        ((Generator(1, True),), [], "generator 1 has degree True"),
        (
            g,
            [CoproductEntry(2, 1, (1,), 3)] * 2,
            "duplicate entry source=2 left=1 right=[1]",
        ),
        (g, [CoproductEntry(2, 1, (7,), 1)], "unknown generator ids [7]"),
        (g, [CoproductEntry(2, 1, (), 1)], "right leg must be a nonempty monomial"),
        (g, [CoproductEntry(2, 1, (1,), 0)], "zero coefficient"),
        (g, [CoproductEntry(2, 2, (1,), 1)], "degrees 3 != degree(2) = 2"),
    ]
    for generators, entries, message in cases:
        with pytest.raises(InputError) as exc:
            _spec(generators, entries)
        assert str(exc.value).startswith("invalid spec: ")
        assert message in str(exc.value)


@pytest.mark.parametrize("row", [(2, 1, (1,), 1), ("a",), 5], ids=["tuple", "short", "int"])
def test_a_row_that_is_no_entry_is_one_problem(row):
    # Such a row crashed the constructor: a tuple on reading its coefficient
    # (AttributeError), a short tuple and an int in the sort (IndexError,
    # TypeError).  Beside a good row of the same key, validate names it once.
    g = (Generator(1, 1), Generator(2, 2))
    with pytest.raises(InputError) as exc:
        _spec(g, [CoproductEntry(2, 1, (1,), 3), row])
    assert str(exc.value) == f"invalid spec: row {row!r} is not a CoproductEntry"


@pytest.mark.parametrize("generator", [(1, 1), 1, "b1"], ids=["tuple", "int", "str"])
def test_a_generator_that_is_no_generator_is_one_problem(generator):
    # Such a generator crashed the id map built before validate
    # (AttributeError on its id); beside a good one, validate names it.
    with pytest.raises(InputError) as exc:
        CoproductSpec("x", [generator, Generator(2, 1)], [])
    assert str(exc.value) == f"invalid spec: generator {generator!r} is not a Generator"


@pytest.mark.parametrize("label", [5, b"b1", ["b1"]], ids=["int", "bytes", "list"])
def test_a_label_the_loader_refuses_the_constructor_refuses(label):
    # Before the constructor checked labels, this table built and saved as
    # '"label": 5', which load_spec then refused.
    with pytest.raises(InputError) as exc:
        CoproductSpec(
            "x", [Generator(1, 1, label), Generator(2, 2)], [CoproductEntry(2, 1, [1], 2)]
        )
    assert str(exc.value) == (
        f"invalid spec: generator 1 has label {label!r}; labels must be strings"
    )
    doc = spec_to_dict(faa_di_bruno_spec(2))
    doc["generators"][0]["label"] = label
    with pytest.raises(InputError, match=r"^generators\[0\]: label must be a string$"):
        spec_from_dict(doc)


@pytest.mark.parametrize("bad", [object(), None, "x"], ids=["object", "None", "str"])
def test_rows_touching_a_generator_of_bad_degree_are_skipped(bad):
    # The degree problem is the table's only one: the row through b1 is not
    # summed (a TypeError on object(), "xx" on "x") nor read as naming an
    # unknown id (None).
    with pytest.raises(InputError) as exc:
        _spec((Generator(1, bad), Generator(2, 2)), [CoproductEntry(2, 1, (1,), 1)])
    assert str(exc.value) == (
        f"invalid spec: generator 1 has degree {bad!r}; degrees must be positive integers"
    )


def test_json_roundtrip(fdb6):
    text = save_spec(fdb6)
    again = load_spec(text)
    assert again.name == fdb6.name
    assert again.generators == fdb6.generators
    assert again.entries == fdb6.entries
    assert save_spec(again) == text
    assert load_spec(text.encode()).entries == fdb6.entries


def test_json_layout_is_stable(fdb6):
    doc = json.loads(save_spec(fdb6))
    assert set(doc) == {"name", "generators", "coproduct"}
    assert doc["generators"][0] == {"id": 1, "degree": 1, "label": "b1"}
    first = doc["coproduct"][0]
    assert set(first) == {"source", "left", "right", "coeff"}


def _row(pos, **fields):
    return lambda d: d["coproduct"][pos].update(**fields)


BIG = "1" * 5000
INT_LIMIT = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has "
    "5000 digits; use sys.set_int_max_str_digits() to increase the limit"
)


# The loader's messages, pinned verbatim: a problem found while reading a row
# names its position, a structural one names the entry.  Rows of the base
# document, in order: (3; 1; [1, 1]; 3), (2; 1; [1]; 3), (3; 1; [2]; 4),
# (3; 2; [1]; 6), then the degree-4 rows.
LOADER_CASES = [
    (lambda d: d.update(extra=1), "unknown top-level fields ['extra']"),
    (lambda d: d.pop("name"), "spec needs a string 'name'"),
    (
        lambda d: d["generators"][0].update(extra=1),
        "generators[0]: unknown fields ['extra']",
    ),
    (_row(0, extra=1), "coproduct[0]: unknown fields ['extra']"),
    (_row(0, right=[2, 1]), "coproduct[0]: right must be sorted ascending, got [2, 1]"),
    (_row(0, coeff="1/0"), "coproduct[0]: bad coefficient '1/0' (Fraction(1, 0))"),
    (_row(0, coeff="abc"), "coproduct[0]: bad coefficient 'abc' (not 'p' or 'p/q')"),
    (
        _row(0, coeff=1.5),
        "coproduct[0]: coeff must be an integer or 'p/q' string, got 1.5",
    ),
    (
        _row(0, coeff=True),
        "coproduct[0]: coeff must be an integer or 'p/q' string, got True",
    ),
    (
        lambda d: d["generators"][0].update(id="1"),
        "generators[0]: generator ids must be positive integers, got '1'",
    ),
    (
        lambda d: d["generators"][0].update(degree=0),
        "generators[0]: degree must be a positive integer, got 0",
    ),
    (
        _row(1, source=True),
        "coproduct[1]: generator ids must be positive integers, got True",
    ),
    (
        _row(1, right="1"),
        "coproduct[1]: right must be a nonempty list of generator ids",
    ),
    (_row(2, right=[]), "coproduct[2]: right must be a nonempty list of generator ids"),
    # ids are checked in list order, before the order of the list
    (
        _row(2, right=[2, 0]),
        "coproduct[2]: generator ids must be positive integers, got 0",
    ),
    (
        _row(1, coeff="-0"),
        "invalid spec: entry source=2 left=1 right=[1]: zero coefficient",
    ),
    (_row(1, coeff="1/0"), "coproduct[1]: bad coefficient '1/0' (Fraction(1, 0))"),
    (_row(1, coeff=BIG), f"coproduct[1]: bad coefficient '{BIG}' ({INT_LIMIT})"),
    (
        _row(1, left=9),
        "invalid spec: entry source=2 left=9 right=[1]: unknown generator ids [9]",
    ),
    (
        lambda d: d["coproduct"].append(dict(d["coproduct"][2])),
        "invalid spec: duplicate entry source=3 left=1 right=[2]",
    ),
    (
        _row(1, source=4),
        "invalid spec: entry source=4 left=1 right=[1]: degrees 2 != degree(4) = 4",
    ),
    (
        lambda d: (_row(1, coeff="0")(d), _row(3, right=[7])(d)),
        "invalid spec: entry source=2 left=1 right=[1]: zero coefficient; "
        "entry source=3 left=2 right=[7]: unknown generator ids [7]",
    ),
    (
        lambda d: (_row(1, coeff="x")(d), _row(3, right=[0])(d)),
        "coproduct[1]: bad coefficient 'x' (not 'p' or 'p/q')",
    ),
    (
        _row(1, right=[2, 1], coeff="x"),
        "coproduct[1]: right must be sorted ascending, got [2, 1]",
    ),
    (
        lambda d: (_row(0, coeff="1")(d), _row(1, coeff=True)(d)),
        "coproduct[1]: coeff must be an integer or 'p/q' string, got True",
    ),
    (
        lambda d: d["coproduct"].__setitem__(1, [2, 1, [1], "3"]),
        "coproduct[1] must be an object",
    ),
    (_row(1, left=0), "coproduct[1]: generator ids must be positive integers, got 0"),
    (
        _row(1, source=2.0),
        "coproduct[1]: generator ids must be positive integers, got 2.0",
    ),
    (
        _row(1, right=[1, True]),
        "coproduct[1]: generator ids must be positive integers, got True",
    ),
    (
        _row(1, right=[1.5]),
        "coproduct[1]: generator ids must be positive integers, got 1.5",
    ),
    (
        _row(1, coeff=None),
        "coproduct[1]: coeff must be an integer or 'p/q' string, got None",
    ),
    (
        lambda d: d["coproduct"].__setitem__(1, OrderedDict(d["coproduct"][1], x=1)),
        "coproduct[1]: unknown fields ['x']",
    ),
    # True equals 1 as a dict key, so only coefficient texts may be reused
    (
        lambda d: (_row(0, coeff=1)(d), _row(1, coeff=True)(d)),
        "coproduct[1]: coeff must be an integer or 'p/q' string, got True",
    ),
    (
        _row(1, coeff=[1]),
        "coproduct[1]: coeff must be an integer or 'p/q' string, got [1]",
    ),
    (lambda d: d.update(generators={}), "spec needs a 'generators' list"),
    (lambda d: d.pop("coproduct"), "spec needs a 'coproduct' list"),
    # an unknown field in place of a known one, so the field count is right
    (
        lambda d: (d["coproduct"][0].pop("coeff"), _row(0, extra=1)(d)),
        "coproduct[0]: unknown fields ['extra']",
    ),
    (
        lambda d: (d["generators"][0].pop("label"), d["generators"][0].update(extra=1)),
        "generators[0]: unknown fields ['extra']",
    ),
]


# Parametrized on the mutation alone, so the earlier cases keep their test ids.
@pytest.mark.parametrize("mutate", [mutate for mutate, _ in LOADER_CASES])
def test_loader_is_strict(mutate):
    doc = spec_to_dict(faa_di_bruno_spec(4))
    # Put an entry with a 2-element right leg first so the unsorted-right
    # mutation has something to scramble.
    target = next(e for e in doc["coproduct"] if len(e["right"]) == 2)
    doc["coproduct"].remove(target)
    doc["coproduct"].insert(0, target)
    mutate(doc)
    with pytest.raises(InputError) as exc:
        spec_from_dict(doc)
    assert str(exc.value) == dict(LOADER_CASES)[mutate]


@pytest.mark.parametrize(
    "load, message",
    [
        (spec_from_dict, "spec document must be a JSON object"),
        (prelie_from_dict, "preLie document must be a JSON object"),
    ],
    ids=["spec", "prelie"],
)
@pytest.mark.parametrize("doc", [[], "x", None], ids=["list", "string", "null"])
def test_loaders_need_an_object_document(load, message, doc):
    with pytest.raises(InputError) as exc:
        load(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "raw, value", [("+3", 3), ("007", 7), ("-2/6", Fraction(-1, 3)), (5, 5)]
)
def test_loader_reads_coefficients_exactly(raw, value):
    doc = spec_to_dict(faa_di_bruno_spec(3))
    doc["coproduct"][1]["coeff"] = raw
    entry = spec_from_dict(doc).entries[1]
    assert entry.coeff == value and type(entry.coeff) is Fraction


class Id(IntEnum):
    ONE = 1
    TWO = 2


def test_loader_accepts_int_and_dict_subclasses():
    # Not what json.loads returns, but a document built in Python may hold
    # them; an IntEnum id and a dict-subclass row load as their plain values.
    doc = spec_to_dict(faa_di_bruno_spec(4))
    plain = spec_from_dict(doc)
    row = doc["coproduct"][0]
    assert (row["source"], row["left"], row["right"]) == (2, 1, [1])
    doc["coproduct"][0] = OrderedDict(row, source=Id.TWO, left=Id.ONE, right=[Id.ONE])
    doc["coproduct"][1] = OrderedDict(doc["coproduct"][1])
    doc["generators"][0]["id"] = Id.ONE
    loaded = spec_from_dict(doc)
    assert loaded.entries == plain.entries
    assert loaded.entries[0] == (2, 1, (1,), 3)
    assert save_spec(loaded) == save_spec(plain)


def test_loaded_entries_are_the_constructors_entries():
    doc = spec_to_dict(faa_di_bruno_spec(4))
    # one coefficient written three ways, the text twice
    for row, raw in zip(doc["coproduct"], ["10", 10, "10", "20/2"]):
        row["coeff"] = raw
    for e in spec_from_dict(doc).entries:
        built = CoproductEntry(e.source, e.left, list(e.right), e.coeff)
        assert (e, hash(e), repr(e)) == (built, hash(built), repr(built))
        assert type(e.right) is tuple and type(e.coeff) is Fraction


@pytest.mark.parametrize(
    "make",
    [
        lambda: faa_di_bruno_spec(6),
        lambda: faa_di_bruno_spec(12),
        lambda: sym_spec(30),
        lambda: dualize(grafting_instance(5), 5),
        _grafting_dual,
    ],
    ids=["fdb-6", "fdb-12", "sym-30", "grafting-5-dual", "grafting-6-dual"],
)
def test_save_load_is_a_fixed_point(make):
    spec = make()
    text = save_spec(spec)
    again = load_spec(text)
    assert save_spec(again) == text
    assert again.entries == spec.entries
    assert all(type(e.coeff) is Fraction for e in again.entries)
    assert all(type(e) is CoproductEntry for e in again.entries)
    for i in spec.generator_ids():
        assert again.entries_for(i) == spec.entries_for(i)


def _dumps(spec):
    """The layout `save_spec` writes, through json's own indented encoder."""
    return json.dumps(spec_to_dict(spec), indent=2) + "\n"


#: Texts json escapes: a quote, a backslash, control characters, non-ASCII,
#: a character past the BMP (a surrogate pair) and a lone surrogate.
_ESCAPED = [
    'q"uote', "back\\slash", "\x00\x1f\t\n\x7f", "caf\u00e9", "\U0001F600", "\ud800", "</a>"
]


def _escaped_spec():
    gens = [Generator(i, 1, label) for i, label in enumerate(_ESCAPED, 1)] + [Generator(9, 2)]
    return CoproductSpec("".join(_ESCAPED), gens, [CoproductEntry(9, 1, [7], -3)])


def _coefficient_spec():
    coeffs = [-1, Fraction(-7, 3), Fraction(10**600 + 1, 7), -(10**4000), 10**299 * 3]
    gens = [Generator(i, 1) for i in range(1, len(coeffs) + 1)] + [Generator(9, 2, "top")]
    return CoproductSpec("c", gens, [CoproductEntry(9, 1, [i], c) for i, c in enumerate(coeffs, 1)])


_SAVED_SPECS = {
    **{f"fdb-{n}": (lambda n=n: faa_di_bruno_spec(n)) for n in range(1, 13)},
    "sym-24": lambda: sym_spec(24),
    **{f"grafting-{k}-dual": (lambda k=k: dualize(grafting_instance(k), k)) for k in range(4, 8)},
    **{f"witt-{n}-dual": (lambda n=n: dualize(witt(n), n)) for n in (1, 4, 8, 10)},
    "empty": lambda: CoproductSpec("", [], []),
    "no-rows": lambda: CoproductSpec("n", [Generator(1, 1)], []),
    "escaped-texts": _escaped_spec,
    "coefficients": _coefficient_spec,
}


@pytest.mark.parametrize("make", _SAVED_SPECS.values(), ids=_SAVED_SPECS.keys())
def test_save_spec_is_json_dumps_with_indent_two(make):
    spec = make()
    assert save_spec(spec) == _dumps(spec)


@settings(max_examples=100, derandomize=True)
@given(
    st.text(),
    st.lists(st.one_of(st.none(), st.text()), min_size=1, max_size=3),
    st.lists(st.one_of(st.integers(), st.fractions()).filter(bool), max_size=9),
)
def test_save_spec_is_json_dumps_on_drawn_texts_and_coefficients(name, labels, coeffs):
    """Rows (top; i; [j]) over degree-1 generators with drawn labels, under a
    drawn name, with drawn coefficients."""
    top = len(labels) + 1
    gens = [Generator(i, 1, label) for i, label in enumerate(labels, 1)] + [Generator(top, 2)]
    pairs = [(i, j) for i in range(1, top) for j in range(i, top)]
    entries = [CoproductEntry(top, i, [j], c) for (i, j), c in zip(pairs, coeffs)]
    spec = CoproductSpec(name, gens, entries)
    assert save_spec(spec) == _dumps(spec)


def test_save_spec_past_the_digit_limit_raises_input_error():
    entries = [CoproductEntry(2, 1, [1], 10**4300)]
    spec = CoproductSpec("big", [Generator(1, 1), Generator(2, 2)], entries)
    for save in (save_spec, _dumps):
        with pytest.raises(InputError, match="coefficient too big to print"):
            save(spec)


def test_loader_rejects_malformed_text(tmp_path):
    with pytest.raises(InputError):
        load_spec("{not json")
    with pytest.raises(InputError):
        load_spec_file(tmp_path / "missing.json")


def test_loader_runs_validation():
    doc = spec_to_dict(faa_di_bruno_spec(3))
    doc["coproduct"][0]["coeff"] = 0
    with pytest.raises(InputError):
        spec_from_dict(doc)


@given(st.integers(min_value=1, max_value=6))
def test_faa_di_bruno_prefix_consistency(d):
    spec = faa_di_bruno_spec(d)
    big = faa_di_bruno_spec(6)
    for i in spec.generator_ids():
        assert spec.entries_for(i) == big.entries_for(i)
