"""Coproduct engine: reduced/full coproducts, multiplicative extension,
iterated splitting, and the structural health checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfforest import cli
from hopfforest.algebra import UNIT, Polynomial, Tensor, mono
from hopfforest.antipode import METHODS, antipode_endomap
from hopfforest.coproduct import (
    _coproduct_monomial,
    _reduced_coproduct_monomial,
    _splice,
    coassociativity_report,
    convolution_check,
    coproduct_poly,
    counit_report,
    full_coproduct_generator,
    iterated_reduced,
    iterated_reduced_poly,
    monomials_up_to,
    reduced_coproduct_generator,
)
from hopfforest.errors import InputError
from hopfforest.hopfspec import (
    CoproductEntry,
    CoproductSpec,
    faa_di_bruno_spec,
    sym_spec,
)
from hopfforest.prelie import dualize, grafting_instance


def test_reduced_coproduct_goldens(fdb6):
    assert reduced_coproduct_generator(fdb6, 1).is_zero
    assert reduced_coproduct_generator(fdb6, 2) == Tensor.single(
        (mono(1), mono(1)), 3
    )
    three = reduced_coproduct_generator(fdb6, 3)
    assert three.render() == "4 b1 (x) b2 + 3 b1 (x) b1b1 + 6 b2 (x) b1"
    assert three.coefficient((mono(1), mono(1, 1))) == 3
    assert three.coefficient((mono(1), mono(2))) == 4
    assert three.coefficient((mono(2), mono(1))) == 6
    assert len(three.terms()) == 3
    assert reduced_coproduct_generator(fdb6, 4).render() == (
        "5 b1 (x) b3 + 10 b1 (x) b1b2 + 10 b2 (x) b2 + 15 b2 (x) b1b1"
        " + 10 b3 (x) b1"
    )
    assert reduced_coproduct_generator(fdb6, 5).render() == (
        "6 b1 (x) b4 + 15 b1 (x) b1b3 + 10 b1 (x) b2b2 + 15 b2 (x) b3"
        " + 60 b2 (x) b1b2 + 15 b2 (x) b1b1b1 + 20 b3 (x) b2"
        " + 45 b3 (x) b1b1 + 15 b4 (x) b1"
    )


def test_full_coproduct_adds_primitive_part(fdb6):
    full = full_coproduct_generator(fdb6, 2)
    assert full.coefficient((mono(2), UNIT)) == 1
    assert full.coefficient((UNIT, mono(2))) == 1
    assert full.coefficient((mono(1), mono(1))) == 3


def test_coproduct_of_squared_generator(fdb6):
    # Hand-expanded from the product rule: the mixed middle term appears with
    # both orders of the two factors, so its weight doubles.
    reduced = _reduced_coproduct_monomial(fdb6, mono(2, 2))
    assert reduced.coefficient((mono(2), mono(2))) == 2
    assert reduced.coefficient((mono(1, 2), mono(1))) == 6
    assert reduced.coefficient((mono(1), mono(1, 2))) == 6
    assert reduced.coefficient((mono(1, 1), mono(1, 1))) == 9
    assert len(reduced.terms()) == 4


small_monomials = st.lists(
    st.integers(min_value=1, max_value=3), max_size=3
).map(lambda xs: mono(*xs))


@settings(max_examples=60)
@given(a=small_monomials, b=small_monomials)
def test_coproduct_is_multiplicative(fdb6, a, b):
    pa = Polynomial.single(a, 1)
    pb = Polynomial.single(b, 1)
    assert coproduct_poly(fdb6, pa * pb) == coproduct_poly(fdb6, pa) * coproduct_poly(
        fdb6, pb
    )


def test_reduced_poly_rejects_constants(fdb6):
    with pytest.raises(InputError):
        _reduced_coproduct_monomial(fdb6, UNIT)
    # the zero polynomial has no monomials to split
    assert iterated_reduced_poly(fdb6, Polynomial.zero(), 2).is_zero


def test_iterated_reduced_rejects_a_constant_term(fdb6):
    # The splice must not treat the unit monomial as if it had a reduced
    # coproduct of its own.
    with pytest.raises(InputError):
        iterated_reduced_poly(fdb6, Polynomial.one() + Polynomial.variable(2), 2)


def test_iterated_reduced_rank_convention(fdb6):
    assert iterated_reduced(fdb6, 3, 1) == Tensor.single((mono(3),), 1)
    assert iterated_reduced(fdb6, 3, 2) == reduced_coproduct_generator(fdb6, 3)
    assert iterated_reduced(fdb6, 3, 3).render() == "18 b1 (x) b1 (x) b1"
    assert iterated_reduced(fdb6, 3, 4).is_zero
    with pytest.raises(InputError):
        iterated_reduced(fdb6, 3, 0)


def test_iterated_reduced_rejects_a_bool_rank():
    # True must not pass as k = 1 and return a rank-1 tensor, even after
    # the rank-1 call on the same table
    spec = faa_di_bruno_spec(3)
    assert iterated_reduced(spec, 3, 1) == Tensor.single((mono(3),), 1)
    with pytest.raises(InputError, match="tensor rank must be >= 1, got True"):
        iterated_reduced(spec, 3, True)
    with pytest.raises(InputError, match="tensor rank must be >= 1, got True"):
        iterated_reduced_poly(spec, Polynomial.variable(3), True)


@pytest.mark.parametrize("i", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_iterated_reduced_leg_independence(fdb6, i, k):
    # iterated_reduced_poly expands the last slot; by coassociativity,
    # expanding the first slot instead gives the same tensor.
    p = Polynomial.variable(i)
    left = Tensor.single((mono(i),))
    for _ in range(k - 1):
        left = _splice(fdb6, left, 0)
    assert iterated_reduced_poly(fdb6, p, k) == left
    assert iterated_reduced_poly(fdb6, p, k) == iterated_reduced(fdb6, i, k)


def test_monomials_up_to(fdb6):
    got = [m.render() for m in monomials_up_to(fdb6, 3)]
    assert got == ["1", "b1", "b2", "b1b1", "b3", "b1b2", "b1b1b1"]
    # One monomial per partition of each total degree: 1+1+2+3+5+7+11.
    assert len(monomials_up_to(fdb6, 6)) == 30
    assert monomials_up_to(fdb6, 0) == [UNIT]
    assert monomials_up_to(fdb6, -1) == []


def test_structure_reports_are_clean(fdb6):
    assert coassociativity_report(fdb6, max_degree=5) == []
    assert counit_report(fdb6, max_degree=5) == []


# The reports the generator reports replaced, kept as oracles: they check
# each identity through the full coproduct, and the per-monomial ones on
# every monomial instead of relying on the coproduct being an algebra
# morphism.

def _full_splice(spec, t, leg):
    """Slot `leg` of every term of t replaced by its full coproduct."""
    return Tensor(
        t.rank + 1,
        (
            (key[:leg] + pair + key[leg + 1 :], c * c2)
            for key, c in t.items()
            for pair, c2 in _coproduct_monomial(spec, key[leg]).items()
        ),
    )


def _full_coassociativity(spec, monomials):
    """(coproduct (x) id) vs (id (x) coproduct) after one full coproduct."""
    problems = []
    for m in monomials:
        once = _coproduct_monomial(spec, m)
        if _full_splice(spec, once, 0) != _full_splice(spec, once, 1):
            problems.append(f"coassociativity failed on {m}")
    return problems


def _coassociativity_full_splice(spec, max_degree):
    """The full-coproduct report on the generators of degree <= max_degree,
    by degree, then id."""
    monomials = monomials_up_to(spec, max_degree)
    return _full_coassociativity(spec, [m for m in monomials if len(m) == 1])


def _coassociativity_per_monomial(spec, max_degree):
    return _full_coassociativity(spec, monomials_up_to(spec, max_degree))


def _counit_per_monomial(spec, max_degree):
    problems = []
    for m in monomials_up_to(spec, max_degree):
        once = _coproduct_monomial(spec, m).items()
        left = Polynomial((b, c) for (a, b), c in once if a.is_unit)
        right = Polynomial((a, c) for (a, b), c in once if b.is_unit)
        expect = Polynomial.single(m)
        if left != expect:
            problems.append(f"left counit failed on {m}: got {left}")
        if right != expect:
            problems.append(f"right counit failed on {m}: got {right}")
    return problems


def _convolution_per_monomial(spec, monomials, antipode):
    """The convolution check on each monomial given, from that monomial's
    own coproduct and antipode rather than from its generators'."""
    problems = []
    for m in monomials:
        expect = Polynomial.one() if m.is_unit else Polynomial.zero()
        got = Polynomial(
            (sa * b, c * ca)
            for (a, b), c in _coproduct_monomial(spec, m).items()
            for sa, ca in antipode(a).items()
        )
        if got != expect:
            problems.append(f"convolution failed on {m}: got {got}, expected {expect}")
    return problems


def test_generator_reports_flag_the_tables_the_per_monomial_reports_flag(corrupted):
    _, base, degree, tables = corrupted
    assert coassociativity_report(base, degree) == []
    assert counit_report(base, degree) == []
    assert _coassociativity_per_monomial(base, degree) == []
    assert _counit_per_monomial(base, degree) == []
    for spec in tables:
        got = coassociativity_report(spec, degree)
        # Every corruption is flagged by both; a generator is a monomial, so
        # each line is one the oracle prints too.
        assert got and set(got) <= set(_coassociativity_per_monomial(spec, degree))
        assert counit_report(spec, degree) == _counit_per_monomial(spec, degree) == []


@pytest.mark.parametrize(
    "make, degree",
    [(lambda: sym_spec(16), 16), (lambda: faa_di_bruno_spec(12), 12)],
    ids=["sym-16", "fdb-12"],
)
def test_structure_reports_are_clean_past_degree_6(make, degree):
    spec = make()
    assert coassociativity_report(spec, degree) == []
    assert counit_report(spec, degree) == []


def test_coassociativity_flags_every_single_coefficient_corruption():
    base = faa_di_bruno_spec(5)
    assert len(base.entries) == 18
    for k, e in enumerate(base.entries):
        entries = list(base.entries)
        entries[k] = CoproductEntry(e.source, e.left, e.right, e.coeff + 1)
        spec = CoproductSpec("corrupt", base.generators.values(), entries)
        assert coassociativity_report(spec, 5), e


@pytest.mark.parametrize(
    "make, degree, rows",
    [
        (lambda: faa_di_bruno_spec(6), 6, 31),
        (lambda: faa_di_bruno_spec(8), 8, 79),
        (lambda: dualize(grafting_instance(5), 5), 5, 68),
    ],
    ids=["fdb-6", "fdb-8", "grafting-5-dual"],
)
def test_reduced_coassociativity_gives_the_full_splice_report(make, degree, rows):
    # The full iterates differ by the reduced iterates' difference, so the
    # two reports print the same lines on every table, and every
    # single-coefficient corruption fails both.
    base = make()
    assert len(base.entries) == rows
    assert coassociativity_report(base, degree) == []
    assert _coassociativity_full_splice(base, degree) == []
    for k, e in enumerate(base.entries):
        entries = list(base.entries)
        entries[k] = CoproductEntry(e.source, e.left, e.right, e.coeff + 1)
        spec = CoproductSpec("corrupt", base.generators.values(), entries)
        got = coassociativity_report(spec, degree)
        assert got and got == _coassociativity_full_splice(spec, degree), e


def test_convolution_check_rejects_non_antipode(fdb6):
    # The identity map is not an antipode, so the convolution unit must fail.
    failures = convolution_check(fdb6, 3, Polynomial.single)
    assert failures
    assert any("b2" in line for line in failures)


def test_generator_convolution_check_gives_the_per_monomial_verdict(
    corrupted, monkeypatch, capsys
):
    # Every single-coefficient corruption under every route: the generator
    # check fails exactly when some monomial of degree <= D does, and it
    # prints what the per-monomial check prints on the generators.  The
    # verify lines before the convolution come from unchanged reports, so
    # its stdout is the one the per-monomial check gave.  verify reads the
    # table in hand, so both share its memos.
    _, _, degree, tables = corrupted
    for spec in tables:
        monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
        assert cli.run(["verify", "--spec", "-", "--max-degree", str(degree)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [
            "structural validation: ok", "coassociativity: FAIL", "counit: ok"
        ]
        monomials = monomials_up_to(spec, degree)
        generators = [m for m in monomials if len(m) == 1]
        verdicts = []
        for method in METHODS:
            antipode = antipode_endomap(spec, method)
            got = convolution_check(spec, degree, antipode)
            assert got == _convolution_per_monomial(spec, generators, antipode)
            everywhere = _convolution_per_monomial(spec, monomials, antipode)
            assert bool(got) == bool(everywhere), method
            verdicts.append(
                f"antipode convolution ({method}): {'FAIL' if everywhere else 'ok'}"
            )
        assert out[4:] == verdicts + ["VERIFY: FAIL"]
