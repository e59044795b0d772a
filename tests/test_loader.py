"""The one-pass table loader against a reference reading.

`spec_from_dict` builds a table whose rows arrive valid and strictly
ascending without re-sorting them or calling `CoproductSpec.validate`;
every other table goes through the public constructor.  The reference here
is the reading that always takes the constructor: each field parsed, then
``CoproductSpec(name, generators, rows)``, which sorts the rows and runs the
full `validate`.  Both must give the same spec or the same message on the
canonical text of every table below and on every mutation of it.
"""

import json
from collections import OrderedDict
from enum import IntEnum

import pytest

from hopfforest.errors import InputError
from hopfforest.hopfspec import (
    CoproductSpec,
    _check_document,
    _parse_generator,
    _parse_items,
    _parse_rows,
    faa_di_bruno_spec,
    load_spec,
    parse_json,
    save_spec,
    spec_from_dict,
    sym_spec,
)
from hopfforest.prelie import dualize, grafting_instance

from vector_fields import vector_fields


def reference_from_dict(doc):
    """The table as the public constructor reads it: sorted, then checked
    by the full `validate`.  With no generator degrees the row pass's proof
    fails at the first row, and its flag is dropped."""
    _check_document(doc, "spec", "spec", ("generators", "coproduct"))
    gens = _parse_items(doc["generators"], "generators", _parse_generator)
    entries, _ = _parse_rows(doc["coproduct"], {})
    return CoproductSpec(doc["name"], gens, entries)


def outcome(load, doc):
    """What a loader makes of a document: the spec's fields, or its
    message."""
    try:
        spec = load(doc)
    except InputError as exc:
        return str(exc)
    return spec.name, spec._generator_list, spec.entries, spec._by_source


TABLES = {
    **{f"fdb-{d}": (lambda d=d: faa_di_bruno_spec(d)) for d in range(1, 10)},
    "sym-12": lambda: sym_spec(12),
    **{
        f"grafting-{n}-dual": (lambda n=n: dualize(grafting_instance(n), n))
        for n in (4, 5, 6)
    },
    "vf-2-4-dual": lambda: dualize(vector_fields(2, 4), 4),
}


def _other_degree(degree, i):
    return next(j for j in sorted(degree) if degree[j] != degree[i])


def _unknown_ids(row):
    right = row["right"]
    return [{"source": 999}, {"left": 999}] + [
        {"right": right[:k] + [999] + right[k + 1:]} for k in range(len(right))
    ]


#: Each row mutation: the row, the row after it (if any) and the generator
#: degrees by id to (rows replaced, new rows) pairs, one per changed document.
ROW_MUTATIONS = {
    "zero-coeff": lambda row, after, degree: [(1, [{**row, "coeff": "0"}])],
    "unknown-id": lambda row, after, degree: [
        (1, [{**row, **fields}]) for fields in _unknown_ids(row)
    ],
    "left-of-other-degree": lambda row, after, degree: [
        (1, [{**row, "left": _other_degree(degree, row["left"])}])
    ],
    "row-repeated": lambda row, after, degree: [(1, [row, row])],
    "rows-swapped": lambda row, after, degree: [(2, after + [row])] if after else [],
}

#: Each generator mutation: the generator list and a position to a new list.
GENERATOR_MUTATIONS = {
    "generator-repeated": lambda gens, pos: gens + [gens[pos]],
    "degree-raised": lambda gens, pos: (
        gens[:pos] + [{**gens[pos], "degree": gens[pos]["degree"] + 1}] + gens[pos + 1:]
    ),
}


def mutations(doc, kind):
    """(label, document) pairs: each change of one kind to the canonical
    document, one row or generator at a time, or all rows reversed."""
    rows, gens = doc["coproduct"], doc["generators"]
    if kind in ROW_MUTATIONS:
        degree = {g["id"]: g["degree"] for g in gens}
        for pos, row in enumerate(rows):
            for width, new in ROW_MUTATIONS[kind](row, rows[pos + 1:pos + 2], degree):
                changed = rows[:pos] + new + rows[pos + width:]
                yield f"row {pos}: {new}", {**doc, "coproduct": changed}
    elif kind in GENERATOR_MUTATIONS:
        for pos in range(len(gens)):
            yield f"generator {pos}", {**doc, "generators": GENERATOR_MUTATIONS[kind](gens, pos)}
    else:
        yield kind, {**doc, "coproduct": rows[::-1]}


KINDS = [*ROW_MUTATIONS, *GENERATOR_MUTATIONS, "rows-reversed"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("make", TABLES.values(), ids=TABLES.keys())
def test_one_pass_loader_reads_as_the_constructor_does(make, kind):
    text = save_spec(make())
    assert outcome(load_spec, text) == outcome(
        lambda text: reference_from_dict(parse_json(text)), text
    )
    # load_spec is spec_from_dict of the parsed text, so each mutated
    # document is read as json.loads would give it, without a text round trip
    for label, doc in mutations(json.loads(text), kind):
        assert outcome(spec_from_dict, doc) == outcome(reference_from_dict, doc), label


@pytest.fixture
def validate_calls(monkeypatch):
    """The number of `CoproductSpec.validate` calls so far."""
    calls = []
    validate = CoproductSpec.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(CoproductSpec, "validate", counted)
    return calls


@pytest.mark.parametrize(
    "make",
    [lambda: faa_di_bruno_spec(8), lambda: dualize(grafting_instance(5), 5)],
    ids=["fdb-8", "grafting-5-dual"],
)
def test_a_canonical_table_loads_without_validate(make, validate_calls):
    spec = make()
    text = save_spec(spec)
    doc = json.loads(text)
    doc["coproduct"].reverse()
    reversed_text = json.dumps(doc)
    del validate_calls[:]
    canonical = load_spec(text)
    assert len(validate_calls) == 0
    unsorted = load_spec(reversed_text)
    assert len(validate_calls) == 1
    for loaded in canonical, unsorted:
        assert (loaded.entries, loaded._by_source) == (spec.entries, spec._by_source)


class Id(IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["coproduct"].__setitem__(1, OrderedDict(d["coproduct"][1])),
        lambda d: d["generators"].__setitem__(0, OrderedDict(d["generators"][0])),
        lambda d: d["coproduct"][0].update(left=Id.ONE),
        lambda d: d["generators"][0].update(id=Id.ONE),
    ],
    ids=["dict-subclass-row", "dict-subclass-generator", "int-subclass-row", "int-subclass-id"],
)
def test_a_table_of_subclasses_goes_through_the_constructor(edit, validate_calls):
    # The row pass proves a subclass as it proves its plain value, so a
    # canonical table of subclasses takes no `validate` walk, and reads as
    # the reference reads it.
    spec = faa_di_bruno_spec(4)
    doc = json.loads(save_spec(spec))
    edit(doc)
    del validate_calls[:]
    loaded = outcome(spec_from_dict, doc)
    assert len(validate_calls) == 0
    assert loaded == outcome(reference_from_dict, doc)
    assert loaded[2:] == (spec.entries, spec._by_source)


def test_the_constructor_and_dualize_still_validate(validate_calls):
    spec, graft = faa_di_bruno_spec(4), grafting_instance(4)
    del validate_calls[:]
    CoproductSpec(spec.name, spec.generators.values(), spec.entries)
    assert len(validate_calls) == 1
    del validate_calls[:]
    dualize(graft, 4)
    assert len(validate_calls) == 1
