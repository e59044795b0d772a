"""Coproduct tables: construction, validation, the built-in composition
family, and the JSON interchange format."""

import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfforest.algebra import Polynomial, mono
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
    spec_to_dict,
    sym_spec,
)


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


def test_entry_normalizes():
    e = CoproductEntry(3, 1, [2, 1, 1], 5)
    assert e.right == (1, 1, 2)
    assert e.coeff == Fraction(5) and type(e.coeff) is Fraction
    assert CoproductEntry(2, 1, (1,), Fraction(3, 4)).coeff == Fraction(3, 4)


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


def test_faa_di_bruno_rejects_bad_degree():
    with pytest.raises(InputError):
        faa_di_bruno_spec(0)


def test_sym_table_is_a_hopf_table():
    spec = sym_spec(8)
    assert coassociativity_report(spec, 8) == []
    assert counit_report(spec, 8) == []
    rows = [(e.left, e.right) for e in spec.entries_for(4)]
    assert rows == [(1, (3,)), (2, (2,)), (3, (1,))]
    with pytest.raises(InputError):
        sym_spec(0)


def test_coefficient_lookup(fdb6):
    assert fdb6.coefficient(3, 1, (2,)) == 4
    assert fdb6.coefficient(3, 1, (3,)) == 0
    assert fdb6.monomial_degree((1, 1, 2)) == 4
    with pytest.raises(InputError):
        fdb6.entries_for(9)
    with pytest.raises(InputError):
        fdb6.degree(0)


def _spec(generators, entries):
    return CoproductSpec("t", tuple(generators), tuple(entries))


def test_validate_flags_each_violation():
    g = (Generator(1, 1), Generator(2, 2))
    assert _spec(g, [CoproductEntry(2, 1, (1,), 3)]).validate() == []
    cases = [
        ((Generator(1, 1), Generator(1, 2)), [], "duplicate generator id 1"),
        ((Generator(1, 0),), [], "generator 1 has degree 0"),
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


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d.pop("name"),
        lambda d: d["generators"][0].update(extra=1),
        lambda d: d["coproduct"][0].update(extra=1),
        lambda d: d["coproduct"][0].update(right=[2, 1]),
        lambda d: d["coproduct"][0].update(coeff="1/0"),
        lambda d: d["coproduct"][0].update(coeff="abc"),
        lambda d: d["coproduct"][0].update(coeff=1.5),
        lambda d: d["coproduct"][0].update(coeff=True),
        lambda d: d["generators"][0].update(id="1"),
        lambda d: d["generators"][0].update(degree=0),
    ],
)
def test_loader_is_strict(mutate):
    doc = spec_to_dict(faa_di_bruno_spec(4))
    # Put an entry with a 2-element right leg first so the unsorted-right
    # mutation has something to scramble.
    target = next(e for e in doc["coproduct"] if len(e["right"]) == 2)
    doc["coproduct"].remove(target)
    doc["coproduct"].insert(0, target)
    mutate(doc)
    with pytest.raises(InputError):
        spec_from_dict(doc)


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
