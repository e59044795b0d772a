"""Exact-arithmetic layer: monomials, polynomials, tensors."""

import copy
import pickle
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfforest import antipode, cli, coproduct, enveloping
from hopfforest.algebra import (
    UNIT,
    Monomial,
    Polynomial,
    Tensor,
    _scalar,
    mono,
    multiset,
)
from hopfforest.errors import InputError
from hopfforest.hopfspec import faa_di_bruno_spec, load_spec_file, save_spec
from hopfforest.prelie import (
    brace_action,
    dualize,
    grafting_instance,
    guin_oudom_mul,
    guin_oudom_poly,
    save_prelie,
)

indices = st.integers(min_value=1, max_value=5)
monomials = st.lists(indices, max_size=4).map(lambda xs: mono(*xs))
scalars = st.one_of(
    st.integers(min_value=-7, max_value=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
coefficients = st.integers(min_value=-6, max_value=6)
polynomials = st.lists(st.tuples(monomials, coefficients), max_size=4).map(Polynomial)
pair_keys = st.tuples(monomials, monomials)
tensors = st.lists(st.tuples(pair_keys, coefficients), max_size=4).map(
    lambda pairs: Tensor(2, pairs)
)


def outer(*factors):
    """The tensor product of polynomials, one per slot."""
    terms = [((), 1)]
    for p in factors:
        terms = [(key + (m,), c * cm) for key, c in terms for m, cm in p.items()]
    return Tensor(len(factors), terms)


@st.composite
def cancelling_pairs(draw, keys):
    """(key, coefficient) pairs with repeated keys, some of them negated
    copies of earlier pairs so their sums cancel to zero."""
    pairs = draw(st.lists(st.tuples(keys, coefficients), max_size=6))
    negated = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return pairs + [(key, -c) for key, c in negated]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Monomial((0,)),
        lambda: Monomial((True,)),
        lambda: Monomial((1.0,)),
        lambda: Polynomial({(1,): 1}),
        lambda: Polynomial({mono(1): 0.5}),
        lambda: Polynomial({mono(1): True}),
        lambda: Tensor(2, {(mono(1),): 1}),
        lambda: Polynomial.variable(1) * 0.5,
        # a monomial equals the plain tuple of its indices, but only a
        # monomial is a key
        lambda: Tensor(2, {((1,), (2,)): 1}),
        lambda: Tensor(1, {((1, 2),): 1}),
    ],
)
def test_public_constructors_check_their_input(build):
    with pytest.raises(InputError):
        build()


def test_derived_values_pass_the_public_check(monkeypatch, tmp_path, capsys):
    # Values built from checked values skip the key check, and monomials
    # sliced or copied from checked ones skip the index check; every value
    # made while verifying two tables, checking a preLie table and
    # dualizing it must still be what the public constructors build from
    # its pairs and indices.  The preLie frames' memos hold packed values:
    # each stores no zero and decodes to such a value.
    made: dict[str, list] = {}
    frames = []

    def record(kind, fn):
        def recorded(*args):
            value = fn(*args)
            made.setdefault(kind, []).append(value)
            return value

        return recorded

    for cls in (Polynomial, Tensor):
        monkeypatch.setattr(cls, "_checked", classmethod(record("built", cls._checked.__func__)))
        monkeypatch.setattr(cls, "__add__", record("sum", cls.__add__))
        monkeypatch.setattr(cls, "__mul__", record("product", cls.__mul__))
    for name, route in list(antipode._GENERATOR_METHODS.items()):
        monkeypatch.setitem(antipode._GENERATOR_METHODS, name, record("route", route))
    init = enveloping._PreLieFrame.__init__

    def recorded_frame(self, spec, degree):
        init(self, spec, degree)
        frames.append(self)

    monkeypatch.setattr(enveloping._PreLieFrame, "__init__", recorded_frame)

    fdb8, graft5, dual5 = (tmp_path / name for name in ("fdb8", "graft5", "dual5"))
    fdb8.write_text(save_spec(faa_di_bruno_spec(8)))
    graft5.write_text(save_prelie(grafting_instance(5)))
    assert cli.run(["verify", "--spec", str(fdb8), "--max-degree", "8"]) == 0
    assert cli.run(["prelie-verify", "--prelie", str(graft5)]) == 0
    capsys.readouterr()
    assert cli.run(["dualize", "--prelie", str(graft5), "--max-degree", "5"]) == 0
    dual5.write_text(capsys.readouterr().out)
    assert cli.run(["verify", "--spec", str(dual5), "--max-degree", "5"]) == 0
    for frame in frames:
        for packed in (*frame.braces.values(), *frame.products.values()):
            assert all(packed.values())
            made.setdefault("preLie frame", []).append(frame.polynomial(packed))
    for path in (fdb8, dual5):
        spec = load_spec_file(str(path))
        for i in spec.generator_ids():
            for k in range(1, spec.degree(i) + 1):
                iterate = coproduct.iterated_reduced(spec, i, k)
                made.setdefault("multiplied out", []).append(iterate.multiplied_out())
        # the commands and antipode_poly multiply and sum no values; the sum
        # of the antipodes adds, and a product of decoded routes multiplies
        total = Polynomial.zero()
        for m in coproduct.monomials_up_to(spec, 4):
            total = total + antipode.antipode_poly(spec, Polynomial.single(m))
        s1, s2 = (antipode.antipode_generator(spec, i) for i in (1, 2))
        assert s1 * s2 == antipode.antipode_poly(spec, Polynomial.single(mono(1, 2)))

    kinds = {"built", "sum", "product", "route", "preLie frame", "multiplied out"}
    assert set(made) == kinds
    for value in (v for values in made.values() for v in values):
        if isinstance(value, Tensor):
            assert Tensor(value.rank, value.items()) == value
            keys = [m for key, _ in value.items() for m in key]
        else:
            assert Polynomial(value.items()) == value
            keys = [m for m, _ in value.items()]
        for m in keys:
            assert m == Monomial(tuple(m))


def _library_values():
    """Each public free-module entry point on fresh tables: the antipode of
    a polynomial by every method on the composition table and on a dual of
    frame scale 24, its coproduct, a rank-3 iterate, and the brace and
    enveloping products of a grafting table."""
    fdb, dual, graft = faa_di_bruno_spec(6), dualize(grafting_instance(5), 5), grafting_instance(4)
    terms = {mono(1, 2): 3, mono(1, 1, 3): Fraction(1, 2), mono(4): 2}
    p = Polynomial({UNIT: -1, **terms})
    q = Polynomial({mono(1, 2): Fraction(2, 3), mono(3): 1, UNIT: 5})
    values = [antipode.antipode_poly(spec, r, method)
              for method in antipode.METHODS for spec, r in ((fdb, p), (dual, q))]
    values += [coproduct.coproduct_poly(fdb, p)]
    values += [coproduct.iterated_reduced_poly(fdb, Polynomial(terms), 3)]
    values += [brace_action(graft, 1, mono(1, 1)), guin_oudom_mul(graft, mono(1), mono(1, 2))]
    left, right = Polynomial({mono(1): 2, UNIT: 1}), Polynomial({mono(1, 1): 1})
    values.append(guin_oudom_poly(graft, left, right))
    return values


def test_commands_and_library_calls_use_no_free_module_arithmetic(
    free_module_refused, tmp_path, capsys
):
    # Every command and each public free-module entry point sums and
    # multiplies packed keys on a frame: with Polynomial and Tensor
    # arithmetic, multiplied_out and monomial products made to raise, each
    # gives what it gave before.
    fdb6, graft4, dual4 = (tmp_path / name for name in ("fdb6", "graft4", "dual4"))
    fdb6.write_text(save_spec(faa_di_bruno_spec(6)))
    graft4.write_text(save_prelie(grafting_instance(4)))
    dual4.write_text(save_spec(dualize(grafting_instance(4), 4)))
    element = ["--spec", str(fdb6), "--element", "5"]
    commands = [
        *(["antipode", *element, "--method", method, "--format", form]
          for method in antipode.METHODS for form in ("text", "json")),
        *(["coproduct", *element, "--iterate", "3", "--format", form] for form in ("text", "json")),
        ["trees", *element],
        ["linearizations", *element, "--k", "3"],
        *([command, "--spec", str(path), "--max-degree", degree]
          for command in ("verify", "compare") for path, degree in ((fdb6, "6"), (dual4, "4"))),
        ["gen", "fdb", "--max-degree", "6"],
        ["dualize", "--prelie", str(graft4), "--max-degree", "4"],
        ["prelie-verify", "--prelie", str(graft4)],
    ]

    def outcomes():
        return [(cli.run(argv), *capsys.readouterr()) for argv in commands]

    expected, library = outcomes(), _library_values()
    assert all(code == 0 for code, _, _ in expected)
    free_module_refused()
    assert outcomes() == expected
    assert _library_values() == library


def test_multiset_sorts_and_validates():
    assert multiset([3, 1, 2, 1]) == (1, 1, 2, 3)
    assert multiset((1, 3) + (2,)) == (1, 2, 3)
    with pytest.raises(InputError):
        multiset([0])
    with pytest.raises(InputError):
        multiset([True])
    # each index is checked before the sort, so mixed types name the bad id
    for bad, call in [
        ("'a'", lambda: multiset([1, "a"])),
        ("'a'", lambda: Monomial(["a", 1])),
        ("None", lambda: mono(1, None)),
    ]:
        with pytest.raises(InputError, match=f"positive integers, got {bad}$"):
            call()


def test_monomial_normalizes_and_renders():
    m = mono(3, 1, 2)
    assert m.indices == (1, 2, 3)
    assert m.render() == "b1b2b3"
    assert mono(1, 1, 1).render() == "b1b1b1"
    assert UNIT.render() == "1"
    assert UNIT.is_unit and len(UNIT) == 0
    assert list(mono(2, 1)) == [1, 2]
    with pytest.raises(InputError):
        mono(0)
    with pytest.raises(InputError):
        Monomial((1, -2))


def test_monomial_product_and_order():
    assert mono(2) * mono(1, 3) == mono(1, 2, 3)
    assert mono(1) * mono(1) == mono(1, 1)
    # Grading by length first, then lexicographic: b3 < b1b2 < b1b1b1.
    keys = [(len(m), m) for m in (mono(3), mono(1, 2), mono(1, 1, 1))]
    assert keys == sorted(keys)


@given(st.lists(indices, max_size=4), st.lists(indices, max_size=4))
def test_monomial_product_is_the_checked_monomial(a, b):
    product = Monomial(a) * Monomial(b)
    assert product == Monomial(a + b)
    assert hash(product) == hash(Monomial(a + b))
    assert product.indices == tuple(sorted(a + b))


def test_monomial_is_immutable():
    m = mono(1, 2)
    with pytest.raises(AttributeError):
        m.indices = (3,)
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        del m.indices
    assert m == mono(1, 2) and hash(m) == hash(mono(2, 1))


def test_polynomial_and_tensor_refuse_attribute_assignment():
    for value in (Polynomial({mono(1): 2}), Tensor.single((mono(1), UNIT), 2)):
        before = value.terms()
        for name in ("_terms", "extra"):
            with pytest.raises(AttributeError, match="is immutable$"):
                setattr(value, name, {})
        assert value.terms() == before


def test_tensor_repr():
    assert repr(Tensor.single((mono(1), mono(2)), 3)) == "Tensor<rank 2: 3 b1 (x) b2>"


class Three(IntEnum):
    THREE = 3


def test_an_int_subclass_coefficient_is_stored_as_a_plain_int():
    assert type(_scalar(Three.THREE)) is int and _scalar(Three.THREE) == 3
    [(_, c)] = Polynomial({mono(1): Three.THREE}).items()
    assert type(c) is int and c == 3


def test_monomial_round_trips_through_pickle_and_deepcopy():
    m = mono(3, 1, 1)
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.deepcopy(UNIT)):
        assert type(copied) is Monomial
    assert pickle.loads(pickle.dumps(m)) == copy.deepcopy(m) == m
    assert copy.deepcopy(UNIT) == UNIT


@pytest.mark.parametrize(
    "op",
    [
        lambda m: m * 2,
        lambda m: 2 * m,
        lambda m: m + m,
        lambda m: (1,) + m,
        # the monomial check comes before the unit shortcut of the product
        lambda m: m * (),
        lambda m: UNIT * (1,),
    ],
    ids=["m*2", "2*m", "m+m", "tuple+m", "m*()", "UNIT*(1,)"],
)
def test_monomial_has_no_tuple_repetition_or_concatenation(op):
    with pytest.raises(TypeError):
        op(mono(1, 2))


def test_monomial_equals_its_index_tuple():
    m = mono(2, 1)
    assert m == (1, 2) and hash(m) == hash((1, 2))


@given(monomials, monomials, monomials)
def test_monomial_product_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * UNIT == a


def test_polynomial_constructors_drop_zeros():
    p = Polynomial({mono(1): 0, mono(2): 3})
    assert p.terms() == [(mono(2), Fraction(3))]
    assert Polynomial.zero().is_zero
    assert not Polynomial.zero()
    assert Polynomial.one().coefficient(UNIT) == 1
    assert Polynomial.variable(2) == Polynomial.single(mono(2), 1)
    assert Polynomial.single(mono(1), 0).is_zero
    # a key that cancels is deleted, and one added again after that is back
    p = Polynomial([(mono(1), 2), (mono(2), 1), (mono(1), -2), (mono(1), 5)])
    assert p.terms() == [(mono(1), Fraction(5)), (mono(2), Fraction(1))]
    assert Polynomial([(mono(1), 2), (mono(1), -2)]).is_zero
    # zero pairs are never stored, whatever their stored form
    t = Tensor(
        2,
        [((UNIT, mono(1)), 0), ((mono(1), UNIT), Fraction(0)), ((UNIT, mono(2)), 3)],
    )
    assert t.terms() == [((UNIT, mono(2)), Fraction(3))]
    # Fraction sums that reach zero, with and without an int among them
    third = Fraction(1, 3)
    q = Polynomial(
        [(mono(1), third), (mono(2), third), (mono(1), -third), (mono(2), 2 * third)]
        + [(mono(2), -1)]
    )
    assert q.is_zero and len(q) == 0
    back = Polynomial([(mono(3), third), (mono(3), -third), (mono(3), 1)])
    assert back.terms() == [(mono(3), Fraction(1))]
    for value in (p, t, q, back):
        assert all(value._terms.values())


@given(polynomials, polynomials, polynomials)
def test_polynomial_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero() == p
    assert p * Polynomial.one() == p
    assert p - p == Polynomial.zero()
    assert -p + p == Polynomial.zero()


@given(polynomials, tensors, scalars, scalars)
def test_polynomial_scalar_action(p, t, c, d):
    assert p * c == c * p
    assert (p * c).coefficient(mono(1)) == p.coefficient(mono(1)) * c
    key = (mono(1), UNIT)
    assert t * c == c * t
    assert (t * c).coefficient(key) == t.coefficient(key) * c
    assert (t * c) * d == t * (c * d)
    assert t * (c + d) == t * c + t * d
    assert t * 1 == t and (t * 0).is_zero


@given(tensors, tensors, tensors)
def test_tensor_additive_axioms(t, u, v):
    assert t + u == u + t
    assert (t + u) + v == t + (u + v)
    assert t + Tensor(2) == t
    assert t - t == Tensor(2)
    assert -t + t == Tensor(2)
    assert t - u == t + (-u)
    assert len(t) == len(t.terms())
    assert (t == u) == (hash(t) == hash(u) and t.terms() == u.terms())


@given(st.data())
def test_constructor_sums_pairs_like_the_fold_of_singles(data):
    for build, single, keys in (
        (Polynomial, Polynomial.single, monomials),
        (lambda pairs: Tensor(2, pairs), Tensor.single, pair_keys),
    ):
        pairs = data.draw(cancelling_pairs(keys))
        folded = build([])
        for key, c in pairs:
            folded = folded + single(key, c)
        built = build(pairs)
        assert built == folded
        assert all(c != 0 for _, c in built.terms())


@given(polynomials, polynomials)
def test_polynomial_equality_and_hash(p, q):
    assert (p == q) == (hash(p) == hash(q) and p.terms() == q.terms())
    assert len(p) == len(p.terms())


def test_polynomial_render_goldens():
    p = Polynomial({mono(3): -1, mono(1, 2): 10, mono(1, 1, 1): -15})
    assert p.render() == "-1 b3 + 10 b1b2 - 15 b1b1b1"
    assert Polynomial.zero().render() == "0"
    assert Polynomial.one().render() == "1"
    assert (Polynomial.one() * Fraction(-5, 2)).render() == "-5/2"
    assert Polynomial.single(mono(1), Fraction(1, 2)).render() == "1/2 b1"


def test_tensor_rank_discipline():
    t = Tensor.single((mono(1), mono(2)), 3)
    assert t.rank == 2
    for bad in (0, True, 1.0):
        with pytest.raises(
            InputError, match=f"tensor rank must be a positive integer, got {bad}"
        ):
            Tensor(bad)
    with pytest.raises(InputError):
        t + Tensor(3)
    with pytest.raises(InputError):
        t * Tensor(3)
    assert (t * Tensor.single((mono(1), UNIT), 1)).coefficient(
        (mono(1, 1), mono(2))
    ) == 3


def test_tensor_outer_and_multiplied_out():
    left = Polynomial({mono(1): 2, mono(2): 1})
    t = outer(left, Polynomial.variable(1))
    assert t.coefficient((mono(1), mono(1))) == 2
    assert t.coefficient((mono(2), mono(1))) == 1
    assert t.multiplied_out() == Polynomial({mono(1, 1): 2, mono(1, 2): 1})


@given(polynomials, polynomials, polynomials)
def test_tensor_outer_bilinear(p, q, r):
    assert outer(p * 2, q) == outer(p, q) * 2
    assert outer(p + r, q) == outer(p, q) + outer(r, q)
    assert outer(p, q + r) == outer(p, q) + outer(p, r)
    assert outer(p, q).multiplied_out() == p * q


def test_tensor_render_keeps_unit_slots():
    assert Tensor.single((mono(1), mono(1)), 3).render() == "3 b1 (x) b1"
    assert Tensor.single((UNIT, mono(2)), 2).render() == "2 1 (x) b2"
    assert Tensor(2).render() == "0"


def _render_oracle(value):
    """``render`` as it was built before it read stored coefficients: the
    terms in (length, indices) order, each coefficient through Fraction."""
    if isinstance(value, Tensor):
        order = lambda t: tuple((len(m), m) for m in t[0])  # noqa: E731
        key_text = lambda key: " (x) ".join(m.render() for m in key)  # noqa: E731
    else:
        order, key_text = (lambda t: (len(t[0]), t[0])), Monomial.render
    terms = [(key, Fraction(c)) for key, c in sorted(value.items(), key=order)]
    assert value.terms() == terms
    chunks = []
    for key, c in terms:
        piece = str(abs(c)) if key == UNIT else f"{abs(c)} {key_text(key)}"
        if not chunks:
            chunks.append(piece if c > 0 else f"-{piece}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(chunks) or "0"


render_scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(max_denominator=10**6),
)
render_monomials = st.one_of(st.just(UNIT), monomials)


@st.composite
def rendered_values(draw):
    """A polynomial or a tensor of rank 1 to 4, unit keys and zero
    coefficients among its pairs, so zeros and cancellations drop out."""
    rank = draw(st.integers(min_value=0, max_value=4))
    if not rank:
        return Polynomial(draw(st.lists(st.tuples(render_monomials, render_scalars), max_size=8)))
    keys = st.tuples(*[render_monomials] * rank)
    return Tensor(rank, draw(st.lists(st.tuples(keys, render_scalars), max_size=8)))


@settings(max_examples=200, derandomize=True)
@given(rendered_values())
def test_render_matches_the_fraction_oracle(value):
    assert value.render() == str(value) == _render_oracle(value)


@pytest.mark.parametrize("make", [Polynomial.single, lambda m, c: Tensor.single((m, UNIT), c)])
@pytest.mark.parametrize(
    "c", [10**4300, -(10**4300), Fraction(1, 10**4300)], ids=["int", "negative", "fraction"]
)
def test_render_past_the_digit_limit_raises_input_error(make, c):
    with pytest.raises(InputError, match="coefficient too big to print"):
        make(mono(1), c).render()


def test_tensor_equality_requires_same_rank():
    assert Tensor(2) != Tensor(3)
    assert Tensor.single((UNIT, UNIT)) == Tensor(2, {(UNIT, UNIT): 1})
    # A polynomial is never a rank-1 tensor, even with the same terms.
    p = Polynomial({mono(1): 2, UNIT: -1})
    t = Tensor(1, {(mono(1),): 2, (UNIT,): -1})
    assert p != t and t != p
    assert Polynomial.zero() != Tensor(1)
    assert Polynomial.one() != Tensor.single((UNIT,))


int_pairs = st.lists(st.tuples(monomials, coefficients), max_size=4)


def _read_back(value):
    """Check the coefficient forms of one value and return its public terms."""
    for _, c in value.items():
        assert type(c) in (int, Fraction)
    for key, c in value.terms():
        assert type(c) is Fraction
        assert type(value.coefficient(key)) is Fraction
    if isinstance(value, Polynomial):
        assert type(value.coefficient(UNIT)) is Fraction
    return value.terms()


@given(int_pairs, int_pairs, scalars)
def test_coefficients_read_back_as_fractions_in_any_stored_form(p_pairs, q_pairs, c):
    """Values store ints until a denominator appears; every public read is a
    Fraction, and a value built from ints equals and hashes like the same
    value built from Fractions."""

    def results(p, q):
        half = p * Fraction(1, 2)
        t = outer(p, q)
        return [
            p + q, p - q, -p, p * c, c * p, p * q, half, half * 2, half * half * 4,
            t, t + outer(q, p), -t, t * c, t * Fraction(1, 2) * 2,
            t * outer(q, half), t.multiplied_out(), outer(half, q, p),
        ]

    as_ints = results(Polynomial(p_pairs), Polynomial(q_pairs))
    as_fractions = results(
        Polynomial((m, Fraction(x)) for m, x in p_pairs),
        Polynomial((m, Fraction(x)) for m, x in q_pairs),
    )
    for a, b in zip(as_ints, as_fractions):
        assert a == b and hash(a) == hash(b)
        assert _read_back(a) == _read_back(b)
