"""Finite-dimensional (truncated) preLie algebras: structure constants, the
symmetric-brace extension of the product to monomial right arguments, the
associative enveloping product on polynomials (the Guin–Oudom recursion over
the unshuffle coproduct), identity checkers, the free rooted-tree grafting
instance, and graded dualization into a coproduct table.

All elements live in the symmetric algebra over the basis: a basis element
b_i is the singleton monomial, and preLie products are linear combinations
of basis elements (degree-homogeneous).  Because interesting preLie algebras
are infinite-dimensional, every spec carries a truncation degree D; asking
for a product that would land above D raises InputError, since the table
cannot say what it is.  Identity checkers only evaluate equalities whose
every intermediate stays within D.

The brace, the enveloping product and every check run on one packed preLie
frame per spec (`enveloping`): the basis in id order, each element a field
of D's bit length, so a monomial product is one integer addition, as on the
coproduct frame whose packing it shares.  The public functions check
degrees before any packing, since a field holds exponents only up to its
width, and decode their packed values to `Polynomial`s at each call.

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

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import factorial, prod
from types import MappingProxyType
from typing import Iterable, Union

from .algebra import Monomial, Polynomial, Scalar, coefficient_text
from .algebra import _positive_int, _sorted_monomial
from .coproduct import _nonzero, _spread, coassociativity_report, counit_report
from .enveloping import _frame_of
from .errors import ConstructionError, InputError
from .hopfspec import (
    CoproductEntry,
    CoproductSpec,
    Generator,
    _check_document,
    _check_fields,
    _generators_json,
    _json_list,
    _parse_coeff,
    _parse_generator,
    _parse_id,
    _parse_items,
    graded_monomials,
    parse_json,
    read_text_file,
)


class PreLieSpec:
    """Structure constants of a truncated graded preLie algebra.
    Construction raises InputError with the `validate` report on any
    structural problem.  Its one memo is ``_frame``, the packed preLie frame
    `enveloping._frame_of` built last, which holds the braces and
    enveloping products computed on it; it is unsynchronized."""

    def __init__(
        self,
        name: str,
        basis: Iterable[Generator],
        products: Mapping[tuple[int, int], Polynomial],
        truncation: int,
    ) -> None:
        self.name = str(name)
        self._basis_list = list(basis)
        self.basis = MappingProxyType(
            {g.id: g for g in self._basis_list if isinstance(g, Generator)}
        )
        if not isinstance(products, Mapping):
            raise InputError(f"invalid preLie spec: products {products!r} are not a mapping")
        # Zero products are equivalent to absent ones; normalize away.
        self.products = MappingProxyType({
            key: value for key, value in products.items()
            if not (type(value) is Polynomial and value.is_zero)
        })
        self.truncation = truncation
        self._frame = None  # set by _frame_of
        problems = self.validate()
        if problems:
            raise InputError("invalid preLie spec: " + "; ".join(problems))

    def basis_ids(self) -> list[int]:
        return sorted(self.basis)

    def degree(self, i: int) -> int:
        try:
            return self.basis[i].degree
        except KeyError:
            raise InputError(f"unknown basis id {i!r}") from None

    def monomial_degree(self, m: Monomial) -> int:
        return sum(self.degree(i) for i in m)

    def validate(self) -> list[str]:
        problems: list[str] = []
        seen: set[int] = set()
        for g in self._basis_list:
            if not isinstance(g, Generator):
                problems.append(f"basis element {g!r} is not a Generator")
                continue
            if g.id in seen:
                problems.append(f"duplicate basis id {g.id}")
            seen.add(g.id)
            if not _positive_int(g.id):
                problems.append(f"basis ids must be positive integers, got {g.id!r}")
            if not _positive_int(g.degree):
                problems.append(
                    f"basis element {g.id} has degree {g.degree!r}; must be a positive integer"
                )
            if g.label is not None and not isinstance(g.label, str):
                problems.append(f"basis element {g.id} has label {g.label!r}; must be a string")
        t = self.truncation
        if not _positive_int(t):
            problems.append(
                f"truncation must be a positive integer, got {t!r}"
            )
            return problems
        degree = {i: g.degree for i, g in self.basis.items() if _positive_int(g.degree)}
        for key, value in sorted(self.products.items(), key=_product_order):
            if not (isinstance(key, tuple) and len(key) == 2):
                problems.append(f"product key {key!r} is not a pair of basis ids")
                continue
            i, j = key
            if not (_positive_int(i) and _positive_int(j) and i in degree and j in degree):
                problems.append(f"product ({i}, {j}): unknown basis ids")
                continue
            if type(value) is not Polynomial:
                problems.append(f"product ({i}, {j}): {value!r} is not a Polynomial")
                continue
            expect = degree[i] + degree[j]
            if expect > t:
                problems.append(
                    f"product ({i}, {j}): lands at degree {expect}, above the "
                    f"truncation {t}; such products must be omitted"
                )
            for m, _ in value.terms():
                if len(m) != 1:
                    problems.append(
                        f"product ({i}, {j}): result term {m} is not a basis element"
                    )
                elif m[0] not in degree:
                    problems.append(f"product ({i}, {j}): unknown result id {m[0]}")
                elif degree[m[0]] != expect:
                    problems.append(
                        f"product ({i}, {j}): result {m} has degree {degree[m[0]]}, "
                        f"expected {expect}"
                    )
        return problems


def _product_order(item: tuple) -> tuple:
    """A product's sort key: pairs of positive ints by value, then every
    other key in the order given, for `PreLieSpec.validate` to name."""
    key = item[0]
    pair = isinstance(key, tuple) and len(key) == 2 and all(map(_positive_int, key))
    return (0, key) if pair else (1,)


def _as_monomial(m: object) -> Monomial:
    """A monomial argument: a Monomial, or the sorted tuple of ids it
    equals; anything else raises InputError."""
    if isinstance(m, tuple) and Monomial(m) == m:
        return Monomial(m)
    raise InputError(f"a monomial is a sorted tuple of basis ids, got {m!r}")


def _check_brace(spec: PreLieSpec, i: int, right: Monomial) -> None:
    """Raises InputError for an id that is no positive int or unknown, and
    when b_i acted on by a nonempty right argument lands above the truncation."""
    if not _positive_int(i):
        raise InputError(f"basis ids must be positive integers, got {i!r}")
    degree = spec.degree(i) + spec.monomial_degree(right)
    if not right.is_unit and degree > spec.truncation:
        raise InputError(
            f"brace ({i}; {right}) lands at degree {degree}, above the "
            f"truncation {spec.truncation}"
        )


def brace_action(spec: PreLieSpec, i: int, right: Monomial) -> Polynomial:
    """The symmetric-brace extension of the product to a monomial right
    argument, by the recursion

        a acted on by 1        = a
        a acted on by (B * b)  = (a acted on by B) acted on by b
                                 - a acted on by (B acted on by b)

    peeling the canonically last factor b.  Here B acted on by b is the
    derivation that lets b act on each factor of B in turn, read off the
    products (Guin and Oudom, 2008).  The preLie identity makes the result
    independent of which factor is peeled; tests exercise that.  Raises
    InputError, before anything is packed, when a nonempty right argument
    takes the total degree above the truncation.  Memoized packed on spec's
    frame, decoded at each call."""
    right = _as_monomial(right)
    _check_brace(spec, i, right)
    frame = _frame_of(spec)
    return frame.polynomial(frame.brace(frame.field[i], frame.pack(right)))


def guin_oudom_mul(spec: PreLieSpec, a: Monomial, b: Monomial) -> Polynomial:
    """The enveloping (associative) product of monomials, by the Guin–Oudom
    recursion on the first left factor x of a = x * a', summed over the
    unshuffle coproduct of b:

        1 * b         = b
        (x * a') * b  = sum over (b) of (x acted on by b1) * (a' * b2)

    Raises InputError when some left factor acted on by all of b lands
    above the truncation.  Computed as `guin_oudom_poly` computes it."""
    single = Polynomial.single
    return guin_oudom_poly(spec, single(_as_monomial(a)), single(_as_monomial(b)))


def guin_oudom_poly(spec: PreLieSpec, p: Polynomial, q: Polynomial) -> Polynomial:
    """Bilinear extension of the enveloping product, each pair of terms
    checked as `guin_oudom_mul` says before anything is packed.  Memoized
    packed on spec's frame, decoded at each call.  Only Polynomials are read."""
    for value in (p, q):
        if not isinstance(value, Polynomial):
            raise InputError(f"expected a Polynomial, got {type(value).__name__}")
    pairs = [(a, b, c1 * c2) for a, c1 in p.items() for b, c2 in q.items()]
    degree = 0
    for a, b, _ in pairs:
        for x in a:
            _check_brace(spec, x, b)
        degree = max(degree, spec.monomial_degree(a) + spec.monomial_degree(b))
    frame = _frame_of(spec, degree)
    pack, mul = frame.pack, frame.mul
    return frame.polynomial(_spread({}, [(0, c, mul(pack(a), pack(b))) for a, b, c in pairs]))


def prelie_check(spec: PreLieSpec) -> list[str]:
    """Evaluates the defining identity

        (x . y) . z - x . (y . z)  =  (x . z) . y - x . (z . y)

    on every ordered basis triple whose total degree fits under the
    truncation, packed on spec's frame; returns one message per violated
    triple."""
    t = spec.truncation
    frame = _frame_of(spec)
    field, acts = frame.field, frame.acts
    degree = {i: g.degree for i, g in spec.basis.items()}
    # up_to[d]: the ids of degree <= d, in id order
    up_to = [[i for i in spec.basis_ids() if degree[i] <= d] for d in range(t + 1)]
    return [
        f"preLie identity fails on basis triple ({x}, {y}, {z})"
        for x in up_to[t]
        for y in up_to[t - degree[x]]
        for z in up_to[t - degree[x] - degree[y]]
        if _associator(acts, field[x], field[y], field[z])
        != _associator(acts, field[x], field[z], field[y])
    ]


def _associator(acts: dict, x: int, y: int, z: int) -> dict:
    """(x . y) . z - x . (y . z) on packed fields; inputs must fit under
    the truncation."""
    by_z, none = acts.get(z, {}), {}
    first = [(0, c, by_z.get(m, none)) for m, c in acts.get(y, none).get(x, none).items()]
    second = [
        (0, -c, acts.get(m, none).get(x, none)) for m, c in by_z.get(y, none).items()
    ]
    return _nonzero(_spread({}, first + second))


def associativity_report(spec: PreLieSpec) -> list[str]:
    """Checks (a*b)*c = a*(b*c) for the enveloping product on every triple
    of non-unit monomials whose total degree fits under the truncation,
    packed on spec's frame.  A triple with a unit factor holds by
    construction on every table: the enveloping product gives 1*b = b by
    definition and (x*a')*1 = x*(a'*1), so a*1 = a, and no product under
    the truncation raises."""
    t = spec.truncation
    frame = _frame_of(spec)
    mul, pack = frame.mul, frame.pack
    mons = [(m, d, pack(m)) for m, d in graded_monomials(spec.basis.values(), t)[1:]]
    problems: list[str] = []
    for a, da, pa in mons:
        for b, db, pb in mons:
            if da + db > t:
                break
            ab = mul(pa, pb)
            for c, dc, pc in mons:
                if da + db + dc > t:
                    break
                acc: dict = {}
                get = acc.get
                for m, k in ab.items():
                    for key, v in mul(m, pc).items():
                        acc[key] = get(key, 0) + k * v
                for m, k in mul(pb, pc).items():
                    for key, v in mul(pa, m).items():
                        acc[key] = get(key, 0) - k * v
                if any(acc.values()):
                    problems.append(
                        f"enveloping product not associative on ({a}, {b}, {c})"
                    )
    return problems


def filtration_report(spec: PreLieSpec) -> list[str]:
    """Checks that a length-n monomial times a length-m monomial is
    supported in word lengths n..n+m, and stays degree-homogeneous.  Each
    packed product's terms are looked up packed; only failing terms are
    decoded, for their messages, in the order of `Polynomial.terms`."""
    t = spec.truncation
    frame = _frame_of(spec)
    mul, pack, monomial = frame.mul, frame.pack, frame.monomial
    mons = graded_monomials(spec.basis.values(), t)
    # Every monomial in the basis ids of degree <= t is a key, so a term that
    # is missing lies above the truncation.
    degree_of = dict(mons)
    shape = {pack(m): (len(m), d) for m, d in mons}
    mons = [(m, d, pack(m)) for m, d in mons[1:]]  # no unit
    problems: list[str] = []
    for a, da, pa in mons:
        for b, db, pb in mons:
            degree = da + db
            if degree > t:
                break
            fits = {(n, degree) for n in range(len(a), len(a) + len(b) + 1)}
            failing = [k for k in mul(pa, pb) if shape.get(k) not in fits]
            for m in sorted(map(monomial, failing), key=lambda m: (len(m), m)):
                if not len(a) <= len(m) <= len(a) + len(b):
                    problems.append(
                        f"product ({a})*({b}) leaves the length window "
                        f"[{len(a)}, {len(a) + len(b)}]: term {m}"
                    )
                if degree_of.get(m) != degree:
                    problems.append(
                        f"product ({a})*({b}) is not homogeneous: term {m}"
                    )
    return problems


# --- Free rooted-tree instance ----------------------------------------------
#
# A shape is the tuple of its children's shapes: () is a single vertex.

def _shape_label(t: tuple) -> str:
    return "[" + "".join(_shape_label(c) for c in t) + "]"


def _graft_everywhere(host: tuple, graft: tuple) -> list[tuple]:
    """One result per vertex of the host: the graft attached as a new child
    of that vertex (children re-sorted into canonical nested-tuple form)."""
    out = [tuple(sorted(host + (graft,)))]
    for pos, child in enumerate(host):
        for g in _graft_everywhere(child, graft):
            out.append(tuple(sorted(host[:pos] + (g,) + host[pos + 1 :])))
    return out


def rooted_tree_shapes(max_vertices: int) -> list[tuple[tuple, int]]:
    """(shape, vertex count) for every unlabeled rooted tree with at most
    max_vertices vertices, shapes as canonical nested tuples, ordered by
    (size, shape).  Every tree of n > 1 vertices is one of n - 1 vertices
    with a leaf grafted on, so each size is the layer of the previous one
    grafted everywhere."""
    if not _positive_int(max_vertices):
        raise InputError(f"max_vertices must be >= 1, got {max_vertices}")
    sized, layer = [((), 1)], [()]
    for n in range(2, max_vertices + 1):
        layer = sorted({g for t in layer for g in _graft_everywhere(t, ())})
        sized += [(t, n) for t in layer]
    return sized


def grafting_instance(max_vertices: int) -> PreLieSpec:
    """The free preLie algebra on one generator, truncated: basis elements
    are unlabeled rooted trees by vertex count, and the product grafts the
    right tree at every vertex of the left tree."""
    sized = rooted_tree_shapes(max_vertices)
    ids = {t: k for k, (t, _) in enumerate(sized, 1)}
    basis = [Generator(ids[t], n, _shape_label(t)) for t, n in sized]
    products: dict[tuple[int, int], Polynomial] = {}
    for t1, n1 in sized:
        for t2, n2 in sized:
            if n1 + n2 > max_vertices:
                break  # sizes ascend
            products[ids[t1], ids[t2]] = Polynomial._checked(
                (tuple.__new__(Monomial, (ids[result],)), 1)
                for result in _graft_everywhere(t1, t2)
            )
    return PreLieSpec(f"grafting-{max_vertices}", basis, products, max_vertices)


# --- Graded dualization -------------------------------------------------------

def _symmetry_factor(m: Monomial) -> Fraction:
    return Fraction(prod(map(factorial, Counter(m).values())))


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
    if not _positive_int(max_degree):
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
    # every right leg fits under max_degree - 1; each generator reads the
    # prefix that fits beside it
    rights = graded_monomials(spec.basis.values(), max_degree - 1)[1:]  # no unit
    frame = _frame_of(spec)
    brace, pack, field, monomial = frame.brace, frame.pack, frame.field, frame.monomial
    entries: list[CoproductEntry] = []
    for g in gens:
        for right, degree in rights:
            if degree > max_degree - g.degree:
                break
            sym = _symmetry_factor(right)
            for z, c in brace(field[g.id], pack(right)).items():
                entries.append(CoproductEntry(monomial(z)[0], g.id, right.indices, c / sym))
    dual = CoproductSpec(f"{spec.name}-dual", gens, entries)
    problems = coassociativity_report(dual, max_degree)
    problems += counit_report(dual, max_degree)
    if problems:
        raise ConstructionError(
            "dualized table fails mandatory checks: " + "; ".join(problems)
        )
    return dual


# --- JSON serialization -------------------------------------------------------

#: A product and a term of its result in ``json.dumps(indent=2)``'s layout.
_PRODUCT_JSON = '{\n      "left": %d,\n      "right": %d,\n      "result": %s\n    }'
_TERM_JSON = '{\n          "id": %d,\n          "coeff": %s\n        }'


def save_prelie(spec: PreLieSpec) -> str:
    """Canonical JSON text for a preLie table, the document `load_prelie`
    reads: ``json.dumps(doc, indent=2) + "\\n"``'s text, written row by row
    as `save_spec` writes a coproduct table."""
    text = encode_basestring_ascii
    products = [
        _PRODUCT_JSON % (i, j, _json_list([
            _TERM_JSON % (m[0], text(coefficient_text(c))) for m, c in value.terms()
        ], 6))
        for (i, j), value in sorted(spec.products.items())
    ]
    return '{\n  "name": %s,\n  "basis": %s,\n  "products": %s,\n  "truncation": %d\n}\n' % (
        text(spec.name), _generators_json(spec.basis.values()), _json_list(products),
        spec.truncation,
    )


_PRODUCT_FIELDS = frozenset(("left", "right", "result"))
_TERM_FIELDS = frozenset(("id", "coeff"))


def _parse_products(items: list) -> dict[tuple[int, int], Polynomial]:
    """The products in one pass, each field of a product or a result term
    through its parser in the order the messages name them."""
    products: dict[tuple[int, int], Polynomial] = {}

    def term(item: object) -> tuple[Monomial, Scalar]:
        _check_fields(item, _TERM_FIELDS)
        k = _parse_id(item.get("id"))
        return _sorted_monomial((k,)), _parse_coeff(item.get("coeff"))

    def product(item: object) -> None:
        _check_fields(item, _PRODUCT_FIELDS)
        i, j = _parse_id(item.get("left")), _parse_id(item.get("right"))
        if (i, j) in products:
            raise InputError(f": duplicate pair ({i}, {j})")
        raw = item.get("result")
        if not isinstance(raw, list):
            raise InputError(": result must be a list")
        # the constructor sums repeated ids
        products[i, j] = Polynomial._checked(_parse_items(raw, ".result", term))

    _parse_items(items, "products", product)
    return products


def prelie_from_dict(doc: object) -> PreLieSpec:
    _check_document(doc, "preLie", "preLie spec", ("basis", "products"), ("truncation",))
    basis = _parse_items(doc["basis"], "basis", _parse_generator)
    products = _parse_products(doc["products"])
    return PreLieSpec(doc["name"], basis, products, doc.get("truncation"))


def load_prelie(text: Union[str, bytes]) -> PreLieSpec:
    return prelie_from_dict(parse_json(text))


def load_prelie_file(path: str) -> PreLieSpec:
    return load_prelie(read_text_file(path, "preLie spec"))
