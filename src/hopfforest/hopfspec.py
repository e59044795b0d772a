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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Sequence, Union

from .algebra import Monomial, Multiset, Rational, coefficient_text, multiset
from .algebra import _fraction, _scalar
from .errors import InputError


def spec_memo(fn: Callable) -> Callable:
    """Memoize ``fn(spec, *key)`` in ``spec._cache[fn]``, so the memo lives
    and dies with the spec.  Omitted trailing arguments take ``fn``'s
    defaults; keyword arguments are not supported.  The memo is an
    unsynchronized dict: threads sharing a spec may compute an entry twice."""
    arity = fn.__code__.co_argcount - 1
    defaults = fn.__defaults__ or ()

    @wraps(fn)
    def memoized(spec, *key):
        if len(key) < arity:
            key += defaults[len(key) - arity :]
        memo = spec._cache.setdefault(fn, {})
        if key not in memo:
            memo[key] = fn(spec, *key)
        return memo[key]

    return memoized


@dataclass(frozen=True)
class Generator:
    """A graded generator of the polynomial algebra."""

    id: int
    degree: int
    label: Optional[str] = None

    def display(self) -> str:
        return self.label if self.label is not None else f"b{self.id}"


@dataclass(frozen=True)
class CoproductEntry:
    """One term of a reduced coproduct: coeff * b_left (x) (product over right).
    The coefficient is given as an int (not a bool) or a Fraction, as in
    Polynomial, and reads back as a Fraction; values built from the entry
    hold it as an int until a denominator appears."""

    source: int
    left: int
    right: Multiset
    coeff: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "right", multiset(self.right))
        object.__setattr__(self, "coeff", _fraction(_scalar(self.coeff)))


class CoproductSpec:
    """A generator table plus reduced-coproduct entries.

    Construction raises InputError with the `validate` report on any
    structural problem, so every spec is graded right-handed.  The table
    never changes afterwards; derived quantities are memoized on the
    instance through `spec_memo`, in an unsynchronized memo.
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[Generator],
        entries: Iterable[CoproductEntry],
    ) -> None:
        self.name = str(name)
        self._generator_list = list(generators)
        self.generators = MappingProxyType({g.id: g for g in self._generator_list})
        self.entries = tuple(
            sorted(entries, key=lambda e: (e.source, e.left, e.right))
        )
        self._by_source: dict[int, tuple[CoproductEntry, ...]] = {}
        for e in self.entries:
            self._by_source.setdefault(e.source, ())
            self._by_source[e.source] += (e,)
        self._coeff = {(e.source, e.left, e.right): e.coeff for e in self.entries}
        # The spec_memo store: one dict per memoized function.
        self._cache: dict = {}
        problems = self.validate()
        if problems:
            raise InputError("invalid spec: " + "; ".join(problems))

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

    def coefficient(self, source: int, left: int, right: Sequence[int]) -> Fraction:
        return self._coeff.get((source, left, multiset(right)), Fraction(0))

    def validate(self) -> list[str]:
        """Structural problems, as human-readable strings; empty means ok."""
        problems: list[str] = []
        seen_ids: set[int] = set()
        for g in self._generator_list:
            if g.id in seen_ids:
                problems.append(f"duplicate generator id {g.id}")
            seen_ids.add(g.id)
            if g.degree < 1:
                problems.append(
                    f"generator {g.id} has degree {g.degree}; degrees must be >= 1"
                )
        seen_keys: set[tuple[int, int, Multiset]] = set()
        for e in self.entries:
            where = f"entry source={e.source} left={e.left} right={list(e.right)}"
            key = (e.source, e.left, e.right)
            if key in seen_keys:
                problems.append(f"duplicate {where}")
            seen_keys.add(key)
            unknown = [
                i
                for i in (e.source, e.left, *e.right)
                if i not in self.generators
            ]
            if unknown:
                problems.append(f"{where}: unknown generator ids {sorted(set(unknown))}")
                continue
            if not e.right:
                problems.append(f"{where}: right leg must be a nonempty monomial")
            if e.coeff == 0:
                problems.append(f"{where}: zero coefficient")
            total = self.degree(e.left) + sum(self.degree(j) for j in e.right)
            if e.right and total != self.degree(e.source):
                problems.append(
                    f"{where}: degrees {total} != degree({e.source}) = "
                    f"{self.degree(e.source)}"
                )
        return problems


def graded_monomials(
    generators: Iterable[Generator], max_degree: int
) -> list[Monomial]:
    """All monomials in the given generators of degree <= max_degree,
    including the unit, in canonical order (by degree, then length, then
    indices)."""
    degree = {g.id: g.degree for g in generators}
    # One pass per generator, so tables with more generators than the
    # recursion limit still enumerate.
    found: list[tuple[tuple[int, ...], int]] = [((), 0)] if max_degree >= 0 else []
    for i in sorted(degree):
        d = degree[i]
        found += [
            (t + (i,) * reps, used + reps * d)
            for t, used in found
            for reps in range(1, (max_degree - used) // d + 1)
        ]
    found.sort(key=lambda f: (f[1], len(f[0]), f[0]))
    return [Monomial(t) for t, _ in found]


# --- Faa di Bruno style instance -------------------------------------------

@lru_cache(maxsize=None)
def _bell_partial(n: int, k: int) -> dict[Multiset, int]:
    """Partial Bell polynomial B_{n,k} as {multiset of block sizes: count},
    via the recurrence  B_{n,k} = sum_j C(n-1, j-1) x_j B_{n-j,k-1}."""
    from math import comb

    if n == 0 and k == 0:
        return {(): 1}
    if n <= 0 or k <= 0:
        return {}
    out: dict[Multiset, int] = {}
    for j in range(1, n - k + 2):
        for sizes, c in _bell_partial(n - j, k - 1).items():
            key = multiset(sizes + (j,))
            out[key] = out.get(key, 0) + comb(n - 1, j - 1) * c
    return out


def faa_di_bruno_spec(max_degree: int) -> CoproductSpec:
    """The composition Hopf algebra on generators b_1..b_max_degree with
    deg(b_n) = n.  Entry coefficients are the set-partition block counts
    from the partial Bell polynomials; every reduced-coproduct term has a
    single generator on the left, which is what the tree and forest
    machinery requires."""
    if max_degree < 1:
        raise InputError(f"max_degree must be >= 1, got {max_degree}")
    gens = [Generator(n, n, f"b{n}") for n in range(1, max_degree + 1)]
    entries: list[CoproductEntry] = []
    for n in range(2, max_degree + 1):
        # Reduced terms of b_n: left leg b_{k-1} for k = 2..n, right leg the
        # monomial of parts >= 2 in each size multiset of B_{n+1,k}, after the
        # degree shift part p -> generator p-1.  Multisets containing only 1s
        # would give an empty right leg; those are the primitive/group-like
        # pieces that the reduced coproduct omits.
        for k in range(2, n + 1):
            for sizes, count in _bell_partial(n + 1, k).items():
                right = multiset(p - 1 for p in sizes if p >= 2)
                if not right:
                    continue
                entries.append(CoproductEntry(n, k - 1, right, Fraction(count)))
    return CoproductSpec(f"faa-di-bruno-{max_degree}", gens, entries)


def sym_spec(n: int) -> CoproductSpec:
    """Symmetric functions on the complete homogeneous generators h_1..h_n,
    deg h_k = k: the reduced coproduct of h_k deconcatenates, one row
    (k; j; [k-j]) with coefficient 1 for each 1 <= j < k.  Its antipode has
    the closed form S(h_n) = (-1)^n e_n (Macdonald, ch. I.2)."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    gens = [Generator(k, k) for k in range(1, n + 1)]
    entries = [
        CoproductEntry(k, j, (k - j,), 1) for k in range(2, n + 1) for j in range(1, k)
    ]
    return CoproductSpec(f"sym-{n}", gens, entries)


# --- JSON serialization ------------------------------------------------------

def generators_to_list(generators: Iterable[Generator]) -> list[dict]:
    """The JSON form of a generator (or basis) list, sorted by id."""
    out = []
    for g in sorted(generators, key=lambda g: g.id):
        item: dict = {"id": g.id, "degree": g.degree}
        if g.label is not None:
            item["label"] = g.label
        out.append(item)
    return out


def spec_to_dict(spec: CoproductSpec) -> dict:
    gens = generators_to_list(spec.generators.values())
    entries = [
        {
            "source": e.source,
            "left": e.left,
            "right": list(e.right),
            "coeff": coefficient_text(e.coeff),
        }
        for e in spec.entries
    ]
    return {"name": spec.name, "generators": gens, "coproduct": entries}


def save_spec(spec: CoproductSpec) -> str:
    """Canonical JSON text for a coproduct table."""
    return json.dumps(spec_to_dict(spec), indent=2) + "\n"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


_COEFF = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_coeff(raw: object, where: str) -> Fraction:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if isinstance(raw, str):
        if not _COEFF.fullmatch(raw):
            raise InputError(f"{where}: bad coefficient {raw!r} (not 'p' or 'p/q')")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: bad coefficient {raw!r} ({exc})") from None
    raise InputError(f"{where}: coeff must be an integer or 'p/q' string, got {raw!r}")


def _parse_id(raw: object, where: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        raise InputError(f"{where}: generator ids must be positive integers, got {raw!r}")
    return raw


def parse_generators(doc: dict, field: str) -> list[Generator]:
    """The strict {"id", "degree", "label"} records of ``doc[field]``."""
    gens: list[Generator] = []
    for pos, item in enumerate(doc[field]):
        where = f"{field}[{pos}]"
        _require(isinstance(item, dict), f"{where} must be an object")
        extra = set(item) - {"id", "degree", "label"}
        _require(not extra, f"{where}: unknown fields {sorted(extra)}")
        gid = _parse_id(item.get("id"), where)
        degree = item.get("degree")
        _require(
            isinstance(degree, int) and not isinstance(degree, bool) and degree >= 1,
            f"{where}: degree must be a positive integer, got {degree!r}",
        )
        label = item.get("label")
        _require(
            label is None or isinstance(label, str),
            f"{where}: label must be a string",
        )
        gens.append(Generator(gid, degree, label))
    return gens


def spec_from_dict(doc: object) -> CoproductSpec:
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    assert isinstance(doc, dict)
    unknown = set(doc) - {"name", "generators", "coproduct"}
    _require(not unknown, f"unknown top-level fields {sorted(unknown)}")
    _require(isinstance(doc.get("name"), str), "spec needs a string 'name'")
    _require(isinstance(doc.get("generators"), list), "spec needs a 'generators' list")
    _require(isinstance(doc.get("coproduct"), list), "spec needs a 'coproduct' list")

    gens = parse_generators(doc, "generators")
    entries: list[CoproductEntry] = []
    for pos, item in enumerate(doc["coproduct"]):
        where = f"coproduct[{pos}]"
        _require(isinstance(item, dict), f"{where} must be an object")
        extra = set(item) - {"source", "left", "right", "coeff"}
        _require(not extra, f"{where}: unknown fields {sorted(extra)}")
        source = _parse_id(item.get("source"), where)
        left = _parse_id(item.get("left"), where)
        right_raw = item.get("right")
        _require(
            isinstance(right_raw, list) and right_raw,
            f"{where}: right must be a nonempty list of generator ids",
        )
        right = tuple(_parse_id(r, where) for r in right_raw)
        _require(
            list(right) == sorted(right),
            f"{where}: right must be sorted ascending, got {list(right)}",
        )
        coeff = _parse_coeff(item.get("coeff"), where)
        entries.append(CoproductEntry(source, left, right, coeff))
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
