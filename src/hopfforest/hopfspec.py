"""Coproduct tables for graded right-handed polynomial Hopf algebras.

A `CoproductSpec` lists finitely many positively graded generators b_i and,
for each, the reduced-coproduct entries

    reduced_coproduct(b_i)  =  sum of  coeff * b_left (x) b_right

where the left leg is always a single generator and the right leg is a
monomial in the generators.  Everything downstream (iterated coproducts,
tree expansions, all three antipode routes) is driven by this table.

The on-disk format is JSON:

    {
      "name": "...",
      "generators": [{"id": 1, "degree": 1, "label": "b1"}, ...],
      "coproduct":  [{"source": 2, "left": 1, "right": [1], "coeff": "3"}, ...]
    }

Coefficients are exact rationals written as "p" or "p/q" strings of signed
decimal integers (plain JSON integers are accepted too).  The "right" list
must be sorted ascending; it is a multiset, so repeats are meaningful.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import groupby
from json.encoder import encode_basestring_ascii
from math import factorial, prod
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .algebra import Monomial, Multiset, Scalar, coefficient_text, multiset
from .algebra import _fraction, _positive_int, _scalar
from .errors import InputError


class Generator(NamedTuple):
    """A graded generator of the polynomial algebra."""

    id: int
    degree: int
    label: Optional[str] = None

    def display(self) -> str:
        return self.label if self.label is not None else f"b{self.id}"


class CoproductEntry(tuple):
    """One term of a reduced coproduct: coeff * b_left (x) (product over right),
    a tuple (source, left, right, coeff), as `Monomial` is a tuple of indices.
    `right` is sorted into a tuple.  The coefficient is given as an int (not
    a bool) or a Fraction, as in Polynomial, and reads back as a Fraction;
    values built from the entry hold it as an int until a denominator
    appears."""

    __slots__ = ()

    def __new__(cls, source: int, left: int, right: Iterable[int], coeff: Scalar):
        if type(coeff) is not Fraction:
            coeff = _fraction(_scalar(coeff))
        multiset((source, left))  # checks both ids, as `right`'s
        return tuple.__new__(cls, (source, left, multiset(right), coeff))

    def __reduce__(self):
        return (CoproductEntry, tuple(self))

    source = property(itemgetter(0))
    left = property(itemgetter(1))
    right = property(itemgetter(2))
    coeff = property(itemgetter(3))


def _row_key(row: object) -> tuple:
    """A table row's sort key: an entry's key, and () for anything else, so
    such a row sorts first, for `CoproductSpec.validate` to name."""
    return row[:3] if type(row) is CoproductEntry else ()


def _entry_text(e: CoproductEntry) -> str:
    return f"entry source={e.source} left={e.left} right={list(e.right)}"


class CoproductSpec:
    """A generator table plus reduced-coproduct entries.

    Construction sorts the rows by (source, left, right) and raises
    InputError with the `validate` report on any structural problem, so
    every spec is graded right-handed.  The loader builds a table whose rows
    it has already proved valid and strictly ascending through `_checked`,
    with neither step.  The table never changes afterwards.  Its one memo is
    ``_frame``, the packed frame `coproduct.frame_over` built last, which
    holds every antipode route's values; it is unsynchronized.
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[Generator],
        entries: Iterable[CoproductEntry],
    ) -> None:
        self._fill(name, list(generators), sorted(entries, key=_row_key))
        problems = self.validate()
        if problems:
            raise InputError("invalid spec: " + "; ".join(problems))
        self._group()

    @classmethod
    def _checked(
        cls, name: str, generators: list[Generator], entries: list[CoproductEntry]
    ) -> "CoproductSpec":
        """A spec of Generators with distinct ids and of rows that `validate`
        would pass, in strictly ascending (source, left, right) order: no
        re-sort and no `validate` walk."""
        spec = object.__new__(cls)
        spec._fill(name, generators, entries)
        spec._group()
        return spec

    def _fill(self, name: str, generators: list, entries: list) -> None:
        self.name = str(name)
        self._generator_list = generators
        self.generators = MappingProxyType(
            {g.id: g for g in generators if isinstance(g, Generator)}
        )
        self.entries = tuple(entries)
        self._frame = None  # set by coproduct.frame_over

    def _group(self) -> None:
        """The rows by source, read from the sorted ``entries``."""
        self._by_source = {
            source: tuple(rows)
            for source, rows in groupby(self.entries, itemgetter(0))
        }

    def generator_ids(self) -> list[int]:
        return sorted(self.generators)

    def degree(self, i: int) -> int:
        try:
            return self.generators[i].degree
        except KeyError:
            raise InputError(f"unknown generator id {i}") from None

    def monomial_degree(self, m: Monomial) -> int:
        return sum(self.degree(i) for i in m)

    def entries_for(self, i: int) -> tuple[CoproductEntry, ...]:
        if i not in self.generators:
            raise InputError(f"unknown generator id {i}")
        return self._by_source.get(i, ())

    def validate(self) -> list[str]:
        """Structural problems, as human-readable strings; empty means ok."""
        problems: list[str] = []
        seen_ids: set[int] = set()
        for g in self._generator_list:
            if not isinstance(g, Generator):
                problems.append(f"generator {g!r} is not a Generator")
                continue
            if g.id in seen_ids:
                problems.append(f"duplicate generator id {g.id}")
            seen_ids.add(g.id)
            if not _positive_int(g.id):
                problems.append(f"generator ids must be positive integers, got {g.id!r}")
            if not _positive_int(g.degree):
                problems.append(
                    f"generator {g.id} has degree {g.degree!r}; degrees must be positive integers"
                )
            if g.label is not None and not isinstance(g.label, str):
                problems.append(f"generator {g.id} has label {g.label!r}; labels must be strings")
        # rows that touch a generator whose degree failed above are skipped
        graded = {i: g.degree for i, g in self.generators.items() if _positive_int(g.degree)}
        known, degree = frozenset(graded), graded.get
        # Sorted by key, so a repeated key follows its first occurrence.
        previous = None
        for e in self.entries:
            if type(e) is not CoproductEntry:
                problems.append(f"row {e!r} is not a CoproductEntry")
                continue
            source, left, right = key = e[:3]
            if key == previous:
                problems.append(f"duplicate {_entry_text(e)}")
            previous = key
            expect = degree(source)
            total = degree(left)
            if expect is None or total is None or not known.issuperset(right):
                if unknown := {i for i in key[:2] + right if i not in self.generators}:
                    problems.append(f"{_entry_text(e)}: unknown generator ids {sorted(unknown)}")
                continue
            for j in right:
                total += degree(j)
            if not right:
                problems.append(
                    f"{_entry_text(e)}: right leg must be a nonempty monomial"
                )
            if not e.coeff:
                problems.append(f"{_entry_text(e)}: zero coefficient")
            if right and total != expect:
                problems.append(
                    f"{_entry_text(e)}: degrees {total} != "
                    f"degree({source}) = {expect}"
                )
        return problems


def graded_monomials(
    generators: Iterable[Generator], max_degree: int
) -> list[tuple[Monomial, int]]:
    """Every monomial in the given generators of degree <= max_degree, unit
    included, as a (monomial, degree) pair, in canonical order (by degree,
    then length, then indices): the monomials up to a lower degree are a
    prefix."""
    degree = {g.id: g.degree for g in generators}
    # levels[d]: the index tuples of degree d.  One pass per generator, so
    # tables with more generators than the recursion limit still enumerate;
    # each pass extends only the levels that leave it room, from the top
    # down, so no tuple it makes takes its generator again.
    levels: list[list[tuple[int, ...]]] = [[()]] + [[] for _ in range(max_degree)]
    for i in sorted(degree):
        d = degree[i]
        for used in range(max_degree - d, -1, -1):
            for t in levels[used]:
                for reps in range(1, (max_degree - used) // d + 1):
                    levels[used + reps * d].append(t + (i,) * reps)
    return [
        (Monomial(t), used)
        for used, level in enumerate(levels[: max_degree + 1])
        for t in sorted(level, key=lambda t: (len(t), t))
    ]


def _below(spec: CoproductSpec, starts, leg: str, known=()) -> list[int]:
    """starts and all they reach through ``leg`` ("left", "right" or "both")
    legs of table rows, but not through ``known``, in ascending degree: a
    leg has smaller degree than its source, so it comes first."""
    seen = {j for j in starts if j not in known}
    todo = list(seen)
    while todo:
        for e in spec.entries_for(todo.pop()):
            if leg == "both":
                legs = (e.left, *e.right)
            else:
                legs = e.right if leg == "right" else (e.left,)
            for j in legs:
                if j not in seen and j not in known:
                    seen.add(j)
                    todo.append(j)
    return sorted(seen, key=lambda j: (spec.degree(j), j))


# --- Faa di Bruno style instance -------------------------------------------

def faa_di_bruno_spec(max_degree: int) -> CoproductSpec:
    """The composition Hopf algebra on generators b_1..b_max_degree with
    deg(b_n) = n.  A partition of n + 1 into k parts p is a monomial of
    degree n + 1 in the part sizes; for k >= 2 and some p >= 2 (the others
    give the primitive terms the reduced coproduct omits) it gives the row
    (n; k - 1; [p - 1 for each p >= 2]) with the count of set partitions of
    that shape, (n + 1)! / (prod p! * prod m_p!), m_p the parts of size p."""
    if not _positive_int(max_degree):
        raise InputError(f"max_degree must be >= 1, got {max_degree}")
    gens = [Generator(n, n, f"b{n}") for n in range(1, max_degree + 1)]
    parts = [Generator(p, p) for p in range(1, max_degree + 2)]
    entries: list[CoproductEntry] = []
    for shape, size in graded_monomials(parts, max_degree + 1):
        right = tuple(p - 1 for p in shape if p >= 2)
        if len(shape) < 2 or not right:
            continue
        orders = map(factorial, (*shape, *map(shape.count, set(shape))))
        entries.append(
            CoproductEntry(size - 1, len(shape) - 1, right, factorial(size) // prod(orders))
        )
    return CoproductSpec(f"faa-di-bruno-{max_degree}", gens, entries)


def sym_spec(n: int) -> CoproductSpec:
    """Symmetric functions on the complete homogeneous generators h_1..h_n,
    deg h_k = k: the reduced coproduct of h_k deconcatenates, one row
    (k; j; [k-j]) with coefficient 1 for each 1 <= j < k.  Its antipode has
    the closed form S(h_n) = (-1)^n e_n (Macdonald, ch. I.2)."""
    if not _positive_int(n):
        raise InputError(f"n must be >= 1, got {n}")
    gens = [Generator(k, k) for k in range(1, n + 1)]
    entries = [
        CoproductEntry(k, j, (k - j,), 1) for k in range(2, n + 1) for j in range(1, k)
    ]
    return CoproductSpec(f"sym-{n}", gens, entries)


# --- JSON serialization ------------------------------------------------------

#: A generator, its label and a coproduct row in ``json.dumps(indent=2)``'s layout.
_GENERATOR_JSON = '{\n      "id": %d,\n      "degree": %d%s\n    }'
_LABEL_JSON = ',\n      "label": %s'
_ROW_JSON = (
    '{\n      "source": %d,\n      "left": %d,\n      "right": [\n        %s\n      ],\n'
    '      "coeff": %s\n    }'
)


def _json_list(items: list[str], indent: int = 2) -> str:
    """A list of JSON texts as ``json.dumps(indent=2)`` lays it out
    ``indent`` spaces deep."""
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]" if items else "[]"


def _generators_json(generators: Iterable[Generator]) -> str:
    """A generator (or basis) list, sorted by id, in ``json.dumps(indent=2)``'s
    text; a generator without a label has no "label" field."""
    text = encode_basestring_ascii
    return _json_list([
        _GENERATOR_JSON % (g.id, g.degree, "" if g.label is None else _LABEL_JSON % text(g.label))
        for g in sorted(generators, key=lambda g: g.id)
    ])


def save_spec(spec: CoproductSpec) -> str:
    """Canonical JSON text for a coproduct table, the document `load_spec`
    reads: ``json.dumps(doc, indent=2) + "\\n"``'s text, written row by row
    around json's C string encoder, since any ``indent`` sends ``json.dumps``
    to its pure-Python encoder."""
    text, number = encode_basestring_ascii, int.__repr__
    rows = [
        _ROW_JSON
        % (source, left, ",\n        ".join(map(number, right)), text(coefficient_text(coeff)))
        for source, left, right, coeff in spec.entries
    ]
    return '{\n  "name": %s,\n  "generators": %s,\n  "coproduct": %s\n}\n' % (
        text(spec.name), _generators_json(spec.generators.values()), _json_list(rows)
    )


# --- JSON deserialization ----------------------------------------------------
#
# Each JSON field has one parser: a value of the exact type json.loads gives
# returns at once, and any other goes on to the checks that name its problem
# or read an int or dict subclass.  A parser raises InputError with the tail
# of its message (": ..." or " must be an object"); the row reader puts the
# row's position in front, so no location text is built unless a row fails.

def _parse_items(items: list, field: str, parse: Callable[[object], object]) -> list:
    """``parse`` of each item of a JSON list; a failure names its item as
    ``field[pos]``."""
    out = []
    for pos, item in enumerate(items):
        try:
            out.append(parse(item))
        except InputError as exc:
            raise InputError(f"{field}[{pos}]{exc}") from None
    return out


def _check_document(
    doc: object, kind: str, noun: str, lists: tuple, optional: tuple = ()
) -> None:
    """The top-level checks of either table kind: an object of known fields,
    a string 'name' and the ``lists``; ``kind`` and ``noun`` name the
    document and the spec in the messages."""
    if not isinstance(doc, dict):
        raise InputError(f"{kind} document must be a JSON object")
    unknown = doc.keys() - {"name", *lists, *optional}
    if unknown:
        raise InputError(f"unknown top-level fields {sorted(unknown)}")
    if not isinstance(doc.get("name"), str):
        raise InputError(f"{noun} needs a string 'name'")
    for field in lists:
        if not isinstance(doc.get(field), list):
            raise InputError(f"{noun} needs a '{field}' list")


def _check_fields(item: object, fields: frozenset) -> None:
    if type(item) is dict and item.keys() <= fields:
        return
    if not isinstance(item, dict):
        raise InputError(" must be an object")
    if not item.keys() <= fields:
        raise InputError(f": unknown fields {sorted(item.keys() - fields)}")


def _parse_id(raw: object) -> int:
    if type(raw) is int and raw >= 1:
        return raw
    if not _positive_int(raw):
        raise InputError(f": generator ids must be positive integers, got {raw!r}")
    return raw


def _parse_right(raw: object) -> Multiset:
    """A nonempty ascending list of generator ids, as a tuple, for a list the
    row reader's inline test refused: ids first, in list order, then order."""
    if not isinstance(raw, list) or not raw:
        raise InputError(": right must be a nonempty list of generator ids")
    right = list(map(_parse_id, raw))
    if right != sorted(right):
        raise InputError(f": right must be sorted ascending, got {right}")
    return tuple(right)


_COEFF = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_coeff(raw: object) -> Scalar:
    """A JSON integer or "p" string as an int, a "p/q" string as a Fraction."""
    if type(raw) is not str:
        if isinstance(raw, int) and not isinstance(raw, bool):
            return raw
        if not isinstance(raw, str):
            raise InputError(f": coeff must be an integer or 'p/q' string, got {raw!r}")
    match = _COEFF.fullmatch(raw)
    if match is None:
        raise InputError(f": bad coefficient {raw!r} (not 'p' or 'p/q')")
    num, den = match.groups()
    try:  # int() refuses digits past Python's limit; Fraction(n, 0) raises
        return int(num) if den is None else Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f": bad coefficient {raw!r} ({exc})") from None


_GENERATOR_FIELDS = frozenset(("id", "degree", "label"))
_ROW_ORDER = ("source", "left", "right", "coeff")
_ROW_FIELDS = frozenset(_ROW_ORDER)


def _parse_generator(item: object) -> Generator:
    """A strict {"id", "degree", "label"} record, as in both spec kinds."""
    _check_fields(item, _GENERATOR_FIELDS)
    gid = _parse_id(item.get("id"))
    degree = item.get("degree")
    if not _positive_int(degree):
        raise InputError(f": degree must be a positive integer, got {degree!r}")
    label = item.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(": label must be a string")
    return Generator(gid, degree, label)


def _parse_rows(items: list, degree: Optional[dict]) -> tuple[list[CoproductEntry], bool]:
    """The coproduct rows in one pass, each field through its parser in the
    order the messages name them.  Every command loads a table, so the
    exact-type tests of the row and of its ids are inlined, and each row is
    built as a tuple.  `coeffs` maps the coefficient texts read so far.

    Given ``degree`` (not None), the degrees of distinct generators by id,
    the same pass proves what `CoproductSpec.validate` checks of a row
    (known ids, ``degree(left) + sum degree(right) == degree(source)``, a
    nonzero coefficient) and that the rows strictly ascend by (source,
    left, right).  The flag returned beside the rows says that every row
    passed and was a plain dict of plain ints; the checks stop at the first
    row that fails them, and a malformed row still raises."""
    coeffs: dict[str, Fraction] = {}
    entries = []
    canonical = degree is not None
    ls, ll, lr = 0, 0, ()  # the (source, left, right) of the row before
    for pos, item in enumerate(items):
        try:
            # A plain dict of the four fields is read by key; any other row
            # goes through `_check_fields`, which names an unknown field.
            fields = None
            if type(item) is dict and len(item) == 4:
                try:
                    fields = item["source"], item["left"], item["right"], item["coeff"]
                except KeyError:
                    pass
            if fields is None:
                _check_fields(item, _ROW_FIELDS)
                fields = map(item.get, _ROW_ORDER)
                canonical = False
            source, left, right, raw = fields
            if type(source) is not int or source < 1:
                source = _parse_id(source)
                canonical = False
            if type(left) is not int or left < 1:
                left = _parse_id(left)
                canonical = False
            if type(right) is list and right:
                low = 1
                for i in right:
                    if type(i) is not int or i < low:
                        break
                    low = i
                else:
                    right = tuple(right)
            if type(right) is not tuple:
                right = _parse_right(right)
                canonical = False
            # A zero is found when its text is first read: `coeffs` keeps it.
            if type(raw) is not str:
                coeff = _fraction(_parse_coeff(raw))
                canonical = canonical and coeff != 0
            elif (coeff := coeffs.get(raw)) is None:
                coeff = coeffs[raw] = _fraction(_parse_coeff(raw))
                canonical = canonical and coeff != 0
            entries.append(tuple.__new__(CoproductEntry, (source, left, right, coeff)))
            if canonical:
                try:
                    total = degree[left] - degree[source]
                    for i in right:
                        total += degree[i]
                except KeyError:
                    total = None
                # after the row before, field by field: no key tuple per row
                if total == 0 and (
                    source > ls or source == ls and (left > ll or left == ll and right > lr)
                ):
                    ls, ll, lr = source, left, right
                else:
                    canonical = False
        except InputError as exc:
            raise InputError(f"coproduct[{pos}]{exc}") from None
    return entries, canonical


def spec_from_dict(doc: object) -> CoproductSpec:
    """A coproduct table from its JSON document, read in one pass: the
    generators, then the rows.  A table of plain JSON values whose rows
    `validate` would pass, in the ascending order `save_spec` writes, is
    built as read, with no re-sort and no `validate` walk; any other goes
    through the `CoproductSpec` constructor, whose `validate` names every
    structural problem."""
    _check_document(doc, "spec", "spec", ("generators", "coproduct"))
    items = doc["generators"]
    gens = _parse_items(items, "generators", _parse_generator)
    degree = {g.id: g.degree for g in gens}
    plain = len(degree) == len(gens) and all(
        type(item) is dict and type(g.id) is type(g.degree) is int
        for item, g in zip(items, gens)
    )
    entries, canonical = _parse_rows(doc["coproduct"], degree if plain else None)
    if canonical:
        return CoproductSpec._checked(doc["name"], gens, entries)
    return CoproductSpec(doc["name"], gens, entries)


def parse_json(text: Union[str, bytes]) -> object:
    """json.loads with every failure mapped to InputError, including bytes
    that do not decode, oversized integers and too-deep nesting."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise InputError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("cannot parse JSON: nested too deeply") from None


def read_text_file(path: str, what: str) -> str:
    """The file's text, decoded as strict UTF-8; InputError when it cannot be
    opened, read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} file {path}: not UTF-8 ({exc})") from None


def load_spec(text: Union[str, bytes]) -> CoproductSpec:
    """Parse a JSON coproduct table; raises InputError on any malformed or
    structurally invalid document."""
    return spec_from_dict(parse_json(text))


def load_spec_file(path: str) -> CoproductSpec:
    return load_spec(read_text_file(path, "spec"))
