"""Finite-dimensional (truncated) preLie algebras: structure constants, the
symmetric-brace extension of the product to monomial right arguments, the
associative enveloping product on polynomials (the Guin–Oudom recursion over
the unshuffle coproduct, which also gives the brace its derivation term),
identity checkers, the free rooted-tree grafting instance, and graded
dualization into a coproduct table.

All elements live in the symmetric algebra over the basis: a basis element
b_i is the singleton monomial, and preLie products are linear combinations
of basis elements (degree-homogeneous).  Because interesting preLie algebras
are infinite-dimensional, every spec carries a truncation degree D; asking
for a product that would land above D raises InputError, since the table
cannot say what it is.  Identity checkers only evaluate equalities whose
every intermediate stays within D.

The on-disk format is JSON:

    {
      "name": "...",
      "basis": [{"id": 1, "degree": 1, "label": "b1"}, ...],
      "products": [{"left": 1, "right": 1,
                    "result": [{"id": 2, "coeff": "1"}]}, ...],
      "truncation": 4
    }
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import factorial
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .algebra import Monomial, Polynomial, Tensor, coefficient_text
from .coproduct import coassociativity_report, counit_report
from .errors import ConstructionError, InputError
from .hopfspec import (
    CoproductEntry,
    CoproductSpec,
    Generator,
    _parse_coeff,
    _parse_id,
    _require,
    generators_to_list,
    graded_monomials,
    parse_generators,
    parse_json,
    read_text_file,
    spec_memo,
)


class PreLieSpec:
    """Structure constants of a truncated graded preLie algebra.
    Construction raises InputError with the `validate` report on any
    structural problem.  Brace values are memoized on the instance through
    `spec_memo`, in an unsynchronized memo."""

    def __init__(
        self,
        name: str,
        basis: Iterable[Generator],
        products: Mapping[tuple[int, int], Polynomial],
        truncation: int,
    ) -> None:
        self.name = str(name)
        self._basis_list = list(basis)
        self.basis = MappingProxyType({g.id: g for g in self._basis_list})
        # Zero products are equivalent to absent ones; normalize away.
        self.products = MappingProxyType(
            {key: value for key, value in products.items() if not value.is_zero}
        )
        self.truncation = truncation
        self._cache: dict = {}
        problems = self.validate()
        if problems:
            raise InputError("invalid preLie spec: " + "; ".join(problems))

    def basis_ids(self) -> list[int]:
        return sorted(self.basis)

    def degree(self, i: int) -> int:
        try:
            return self.basis[i].degree
        except KeyError:
            raise InputError(f"unknown basis id {i}") from None

    def monomial_degree(self, m: Monomial) -> int:
        return sum(self.degree(i) for i in m)

    def validate(self) -> list[str]:
        problems: list[str] = []
        seen: set[int] = set()
        for g in self._basis_list:
            if g.id in seen:
                problems.append(f"duplicate basis id {g.id}")
            seen.add(g.id)
            if g.degree < 1:
                problems.append(
                    f"basis element {g.id} has degree {g.degree}; must be >= 1"
                )
        t = self.truncation
        if not isinstance(t, int) or isinstance(t, bool) or t < 1:
            problems.append(
                f"truncation must be a positive integer, got {t!r}"
            )
            return problems
        for (i, j), value in sorted(self.products.items()):
            where = f"product ({i}, {j})"
            if i not in self.basis or j not in self.basis:
                problems.append(f"{where}: unknown basis ids")
                continue
            expect = self.degree(i) + self.degree(j)
            if expect > self.truncation:
                problems.append(
                    f"{where}: lands at degree {expect}, above the truncation "
                    f"{self.truncation}; such products must be omitted"
                )
            for m, _ in value.terms():
                if len(m) != 1:
                    problems.append(
                        f"{where}: result term {m} is not a basis element"
                    )
                    continue
                k = m.indices[0]
                if k not in self.basis:
                    problems.append(f"{where}: unknown result id {k}")
                elif self.degree(k) != expect:
                    problems.append(
                        f"{where}: result {m} has degree {self.degree(k)}, "
                        f"expected {expect}"
                    )
        return problems


def prelie_product(spec: PreLieSpec, i: int, j: int) -> Polynomial:
    """The basis product b_i acted on by b_j; zero when no structure
    constant is declared.  Raises InputError when the result degree exceeds
    the truncation."""
    degree = spec.degree(i) + spec.degree(j)
    if degree > spec.truncation:
        raise InputError(
            f"product ({i}, {j}) lands at degree {degree}, above the "
            f"truncation {spec.truncation}"
        )
    return spec.products.get((i, j), Polynomial.zero())


@spec_memo
def brace_action(spec: PreLieSpec, i: int, right: Monomial) -> Polynomial:
    """The symmetric-brace extension of the product to a monomial right
    argument, by the recursion

        a acted on by 1        = a
        a acted on by (B * b)  = (a acted on by B) acted on by b
                                 - a acted on by (B acted on by b)

    peeling the canonically last factor b.  Here B acted on by b is the
    derivation that lets b act on each factor of B in turn, read off the
    enveloping product as guin_oudom_mul(B, b) - B * b; the two functions
    recurse on strictly shorter arguments.  The preLie identity makes the
    result independent of which factor is peeled; tests exercise that.
    Raises InputError when a nonempty right argument takes the total degree
    above the truncation."""
    degree = spec.degree(i)  # raises for unknown ids
    if right.is_unit:
        return Polynomial.variable(i)
    degree += spec.monomial_degree(right)
    if degree > spec.truncation:
        raise InputError(
            f"brace ({i}; {right}) lands at degree {degree}, above the "
            f"truncation {spec.truncation}"
        )
    last = right.indices[-1]
    if len(right) == 1:
        return prelie_product(spec, i, last)
    rest = Monomial(right.indices[:-1])
    derivation = guin_oudom_mul(spec, rest, Monomial((last,))) - Polynomial.single(right)
    parts = [
        (prelie_product(spec, m.indices[0], last), c)
        for m, c in brace_action(spec, i, rest).items()
    ]
    parts += [(brace_action(spec, i, m), -c) for m, c in derivation.items()]
    return Polynomial((m, w * c) for value, w in parts for m, c in value.items())


@spec_memo
def guin_oudom_mul(spec: PreLieSpec, a: Monomial, b: Monomial) -> Polynomial:
    """The enveloping (associative) product of monomials, by the Guin–Oudom
    recursion on the first left factor x of a = x * a', summed over the
    unshuffle coproduct of b:

        1 * b         = b
        (x * a') * b  = sum over (b) of (x acted on by b1) * (a' * b2)

    Raises InputError when some left factor acted on by all of b lands
    above the truncation."""
    if a.is_unit:
        return Polynomial.single(b)
    x = a.indices[0]
    rest = Monomial(a.indices[1:])
    pieces = [
        (brace_action(spec, x, b1), guin_oudom_mul(spec, rest, b2), c)
        for (b1, b2), c in unshuffle_coproduct(b).items()
    ]
    return Polynomial(
        (m1 * m2, c * c1 * c2)
        for hit, rest_product, c in pieces
        for m1, c1 in hit.items()
        for m2, c2 in rest_product.items()
    )


def guin_oudom_poly(spec: PreLieSpec, p: Polynomial, q: Polynomial) -> Polynomial:
    """Bilinear extension of the enveloping product."""
    pairs = ((m1, m2, c1 * c2) for m1, c1 in p.items() for m2, c2 in q.items())
    return Polynomial(
        (m, w * c) for m1, m2, w in pairs for m, c in guin_oudom_mul(spec, m1, m2).items()
    )


def unshuffle_coproduct(m: Monomial) -> Tensor:
    """The coproduct making every basis element primitive, on one monomial:
    sum over splittings of the factor positions into left/right parts."""
    idx = m.indices
    full = (1 << len(idx)) - 1

    def part(mask: int) -> Monomial:
        return Monomial(tuple(i for s, i in enumerate(idx) if mask >> s & 1))

    return Tensor(2, (((part(mask), part(full ^ mask)), 1) for mask in range(full + 1)))


def unshuffle_poly(p: Polynomial) -> Tensor:
    pieces = ((unshuffle_coproduct(m), c) for m, c in p.items())
    return Tensor(2, ((key, c * ct) for t, c in pieces for key, ct in t.items()))


def prelie_check(spec: PreLieSpec) -> list[str]:
    """Evaluates the defining identity

        (x . y) . z - x . (y . z)  =  (x . z) . y - x . (z . y)

    on every ordered basis triple whose total degree fits under the
    truncation; returns one message per violated triple."""
    problems: list[str] = []
    ids = spec.basis_ids()
    for x in ids:
        for y in ids:
            for z in ids:
                if (
                    spec.degree(x) + spec.degree(y) + spec.degree(z)
                    > spec.truncation
                ):
                    continue
                if _associator(spec, x, y, z) != _associator(spec, x, z, y):
                    problems.append(
                        f"preLie identity fails on basis triple ({x}, {y}, {z})"
                    )
    return problems


def _associator(spec: PreLieSpec, x: int, y: int, z: int) -> Polynomial:
    """(x . y) . z - x . (y . z); inputs must fit under the truncation."""
    first = (
        (m2, c * c2)
        for m, c in prelie_product(spec, x, y).items()
        for m2, c2 in prelie_product(spec, m.indices[0], z).items()
    )
    second = (
        (m2, -c * c2)
        for m, c in prelie_product(spec, y, z).items()
        for m2, c2 in prelie_product(spec, x, m.indices[0]).items()
    )
    return Polynomial(chain(first, second))


def associativity_report(spec: PreLieSpec) -> list[str]:
    """Checks (a*b)*c = a*(b*c) for the enveloping product on every monomial
    triple whose total degree fits under the truncation (unit included)."""
    problems: list[str] = []
    mons = graded_monomials(spec.basis.values(), spec.truncation)
    for a in mons:
        da = spec.monomial_degree(a)
        for b in mons:
            dab = da + spec.monomial_degree(b)
            if dab > spec.truncation:
                continue
            ab = guin_oudom_mul(spec, a, b)
            for c in mons:
                if dab + spec.monomial_degree(c) > spec.truncation:
                    continue
                bc = guin_oudom_mul(spec, b, c)
                lhs = guin_oudom_poly(spec, ab, Polynomial.single(c))
                rhs = guin_oudom_poly(spec, Polynomial.single(a), bc)
                if lhs != rhs:
                    problems.append(
                        f"enveloping product not associative on ({a}, {b}, {c})"
                    )
    return problems


def filtration_report(spec: PreLieSpec) -> list[str]:
    """Checks that a length-n monomial times a length-m monomial is
    supported in word lengths n..n+m, and stays degree-homogeneous."""
    problems: list[str] = []
    mons = graded_monomials(spec.basis.values(), spec.truncation)[1:]  # no unit
    for a in mons:
        for b in mons:
            degree = spec.monomial_degree(a) + spec.monomial_degree(b)
            if degree > spec.truncation:
                continue
            res = guin_oudom_mul(spec, a, b)
            for m, _ in res.terms():
                if not len(a) <= len(m) <= len(a) + len(b):
                    problems.append(
                        f"product ({a})*({b}) leaves the length window "
                        f"[{len(a)}, {len(a) + len(b)}]: term {m}"
                    )
                if spec.monomial_degree(m) != degree:
                    problems.append(
                        f"product ({a})*({b}) is not homogeneous: term {m}"
                    )
    return problems


# --- Free rooted-tree instance ----------------------------------------------

ShapeTree = tuple  # nested tuples: () is a single vertex


def _shape_size(t: ShapeTree) -> int:
    return 1 + sum(_shape_size(c) for c in t)


def _shape_label(t: ShapeTree) -> str:
    return "[" + "".join(_shape_label(c) for c in t) + "]"


def _graft_everywhere(host: ShapeTree, graft: ShapeTree) -> list[ShapeTree]:
    """One result per vertex of the host: the graft attached as a new child
    of that vertex (children re-sorted into canonical nested-tuple form)."""
    out = [tuple(sorted(host + (graft,)))]
    for pos, child in enumerate(host):
        for g in _graft_everywhere(child, graft):
            out.append(tuple(sorted(host[:pos] + (g,) + host[pos + 1 :])))
    return out


def rooted_tree_shapes(max_vertices: int) -> list[ShapeTree]:
    """All unlabeled rooted trees with at most max_vertices vertices, as
    canonical nested tuples, ordered by (size, shape)."""
    if max_vertices < 1:
        raise InputError(f"max_vertices must be >= 1, got {max_vertices}")
    pool: list[tuple[ShapeTree, int]] = [((), 1)]
    for n in range(2, max_vertices + 1):
        def child_forests(total: int, start: int):
            if total == 0:
                yield ()
                return
            for idx in range(start, len(pool)):
                t, size = pool[idx]
                if size <= total:
                    for rest in child_forests(total - size, idx):
                        yield (t,) + rest

        fresh = sorted({tuple(sorted(f)) for f in child_forests(n - 1, 0)})
        pool.extend((t, n) for t in fresh)
    return [t for t, _ in pool]


def grafting_instance(max_vertices: int) -> PreLieSpec:
    """The free preLie algebra on one generator, truncated: basis elements
    are unlabeled rooted trees by vertex count, and the product grafts the
    right tree at every vertex of the left tree."""
    shapes = rooted_tree_shapes(max_vertices)
    ids = {t: k + 1 for k, t in enumerate(shapes)}
    basis = [
        Generator(ids[t], _shape_size(t), _shape_label(t)) for t in shapes
    ]
    products: dict[tuple[int, int], Polynomial] = {}
    for t1 in shapes:
        for t2 in shapes:
            if _shape_size(t1) + _shape_size(t2) > max_vertices:
                continue
            products[ids[t1], ids[t2]] = Polynomial(
                (Monomial((ids[result],)), 1) for result in _graft_everywhere(t1, t2)
            )
    return PreLieSpec(f"grafting-{max_vertices}", basis, products, max_vertices)


# --- Graded dualization -------------------------------------------------------

def _symmetry_factor(m: Monomial) -> Fraction:
    out = 1
    for i in set(m.indices):
        out *= factorial(m.indices.count(i))
    return Fraction(out)


def dualize(spec: PreLieSpec, max_degree: int) -> CoproductSpec:
    """Reads a coproduct table off the brace action: the entry for source k,
    left i, right J is the coefficient of b_k in (b_i acted on by b_J),
    divided by the symmetry factor of J (the product of factorials of its
    multiplicities, i.e. the graded pairing that makes distinct monomials
    dual to themselves).

    The result must pass the coassociativity and counit checks; any failure
    raises ConstructionError, because a table that fails them is not a
    usable coproduct no matter how it was obtained.
    """
    if max_degree < 1:
        raise InputError(f"max_degree must be >= 1, got {max_degree}")
    if max_degree > spec.truncation:
        raise InputError(
            f"max_degree {max_degree} exceeds the truncation {spec.truncation}; "
            "brace values above the truncation are unavailable"
        )
    identity_problems = prelie_check(spec)
    if identity_problems:
        raise ConstructionError(
            "refusing to dualize a non-preLie table: "
            + "; ".join(identity_problems)
        )
    gens = [
        g for g in sorted(spec.basis.values(), key=lambda g: g.id)
        if g.degree <= max_degree
    ]
    entries: list[CoproductEntry] = []
    for g in gens:
        for right in graded_monomials(spec.basis.values(), max_degree - g.degree):
            if right.is_unit:
                continue
            sym = _symmetry_factor(right)
            for m, c in brace_action(spec, g.id, right).items():
                entries.append(
                    CoproductEntry(m.indices[0], g.id, right.indices, c / sym)
                )
    dual = CoproductSpec(f"{spec.name}-dual", gens, entries)
    problems = coassociativity_report(dual, max_degree)
    problems += counit_report(dual, max_degree)
    if problems:
        raise ConstructionError(
            "dualized table fails mandatory checks: " + "; ".join(problems)
        )
    return dual


# --- JSON serialization -------------------------------------------------------

def prelie_to_dict(spec: PreLieSpec) -> dict:
    products = []
    for (i, j), value in sorted(spec.products.items()):
        products.append(
            {
                "left": i,
                "right": j,
                "result": [
                    {"id": m.indices[0], "coeff": coefficient_text(c)}
                    for m, c in value.terms()
                ],
            }
        )
    return {
        "name": spec.name,
        "basis": generators_to_list(spec.basis.values()),
        "products": products,
        "truncation": spec.truncation,
    }


def save_prelie(spec: PreLieSpec) -> str:
    return json.dumps(prelie_to_dict(spec), indent=2) + "\n"


def prelie_from_dict(doc: object) -> PreLieSpec:
    _require(isinstance(doc, dict), "preLie document must be a JSON object")
    assert isinstance(doc, dict)
    unknown = set(doc) - {"name", "basis", "products", "truncation"}
    _require(not unknown, f"unknown top-level fields {sorted(unknown)}")
    _require(isinstance(doc.get("name"), str), "preLie spec needs a string 'name'")
    _require(isinstance(doc.get("basis"), list), "preLie spec needs a 'basis' list")
    _require(
        isinstance(doc.get("products"), list), "preLie spec needs a 'products' list"
    )
    basis = parse_generators(doc, "basis")
    products: dict[tuple[int, int], Polynomial] = {}
    for pos, item in enumerate(doc["products"]):
        where = f"products[{pos}]"
        _require(isinstance(item, dict), f"{where} must be an object")
        extra = set(item) - {"left", "right", "result"}
        _require(not extra, f"{where}: unknown fields {sorted(extra)}")
        i = _parse_id(item.get("left"), where)
        j = _parse_id(item.get("right"), where)
        _require((i, j) not in products, f"{where}: duplicate pair ({i}, {j})")
        raw = item.get("result")
        _require(isinstance(raw, list), f"{where}: result must be a list")
        terms: list[tuple[Monomial, Fraction]] = []
        for tpos, term in enumerate(raw):
            twhere = f"{where}.result[{tpos}]"
            _require(isinstance(term, dict), f"{twhere} must be an object")
            textra = set(term) - {"id", "coeff"}
            _require(not textra, f"{twhere}: unknown fields {sorted(textra)}")
            k = _parse_id(term.get("id"), twhere)
            terms.append((Monomial((k,)), _parse_coeff(term.get("coeff"), twhere)))
        products[i, j] = Polynomial(terms)  # sums repeated ids
    return PreLieSpec(doc["name"], basis, products, doc.get("truncation"))


def load_prelie(text: Union[str, bytes]) -> PreLieSpec:
    return prelie_from_dict(parse_json(text))


def load_prelie_file(path: str) -> PreLieSpec:
    return load_prelie(read_text_file(path, "preLie spec"))
