"""Coproduct engine: reduced/full coproducts, multiplicative extension,
iterated splitting, and the structural health checks."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coproduct_oracle as oracle
from hopfforest import cli, coproduct
from hopfforest.algebra import UNIT, Polynomial, Tensor, mono
from hopfforest.antipode import (
    METHODS,
    antipode_dyson_salam,
    antipode_generator,
    antipode_poly,
    packed_route,
    term_stats,
)
from hopfforest.coproduct import (
    coassociativity_report,
    convolution_check,
    coproduct_poly,
    counit_report,
    iterated_reduced,
    iterated_reduced_poly,
    monomials_up_to,
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
    assert iterated_reduced(fdb6, 1, 2).is_zero
    assert iterated_reduced(fdb6, 2, 2) == Tensor.single(
        (mono(1), mono(1)), 3
    )
    three = iterated_reduced(fdb6, 3, 2)
    assert three.render() == "4 b1 (x) b2 + 3 b1 (x) b1b1 + 6 b2 (x) b1"
    assert three.coefficient((mono(1), mono(1, 1))) == 3
    assert three.coefficient((mono(1), mono(2))) == 4
    assert three.coefficient((mono(2), mono(1))) == 6
    assert len(three.terms()) == 3
    assert iterated_reduced(fdb6, 4, 2).render() == (
        "5 b1 (x) b3 + 10 b1 (x) b1b2 + 10 b2 (x) b2 + 15 b2 (x) b1b1"
        " + 10 b3 (x) b1"
    )
    assert iterated_reduced(fdb6, 5, 2).render() == (
        "6 b1 (x) b4 + 15 b1 (x) b1b3 + 10 b1 (x) b2b2 + 15 b2 (x) b3"
        " + 60 b2 (x) b1b2 + 15 b2 (x) b1b1b1 + 20 b3 (x) b2"
        " + 45 b3 (x) b1b1 + 15 b4 (x) b1"
    )


def test_full_coproduct_adds_primitive_part(fdb6):
    full = oracle.full_coproduct(fdb6, mono(2))
    assert full.coefficient((mono(2), UNIT)) == 1
    assert full.coefficient((UNIT, mono(2))) == 1
    assert full.coefficient((mono(1), mono(1))) == 3


def test_coproduct_of_squared_generator(fdb6):
    # Hand-expanded from the product rule: the mixed middle term appears with
    # both orders of the two factors, so its weight doubles.
    reduced = iterated_reduced_poly(fdb6, Polynomial.single(mono(2, 2)), 2)
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
    with pytest.raises(InputError, match="zero constant term, got constant 1$"):
        iterated_reduced_poly(fdb6, Polynomial.one(), 2)
    # the zero polynomial has no monomials to split
    assert iterated_reduced_poly(fdb6, Polynomial.zero(), 2).is_zero


def test_iterated_reduced_rejects_a_constant_term(fdb6):
    # The splice must not treat the unit monomial as if it had a reduced
    # coproduct of its own.
    with pytest.raises(InputError):
        iterated_reduced_poly(fdb6, Polynomial.one() + Polynomial.variable(2), 2)


def test_iterated_reduced_rank_convention(fdb6):
    assert iterated_reduced(fdb6, 3, 1) == Tensor.single((mono(3),), 1)
    assert iterated_reduced(fdb6, 3, 2) == oracle.reduced_coproduct(fdb6, mono(3))
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
        left = oracle.splice(fdb6, left, 0)
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


@pytest.mark.parametrize("max_degree", ["a", 2.5, True, None])
def test_every_degree_bound_must_be_an_int(max_degree):
    # A bound that is not an int, or is a bool, is refused before any
    # comparison: "a" raised TypeError from one, and 2.5 and True checked
    # generators as if they were numbers.
    spec = faa_di_bruno_spec(4)
    checks = [
        lambda: coassociativity_report(spec, max_degree),
        lambda: counit_report(spec, max_degree),
        lambda: convolution_check(spec, max_degree, "forest"),
        lambda: monomials_up_to(spec, max_degree),
    ]
    for check in checks:
        with pytest.raises(InputError, match="^max_degree must be an integer, got "):
            check()


def test_a_degree_bound_below_1_checks_nothing(fdb6):
    for max_degree in (0, -1):
        assert coassociativity_report(fdb6, max_degree) == []
        assert counit_report(fdb6, max_degree) == []
        assert convolution_check(fdb6, max_degree, "forest") == []


# The reports the generator reports replaced, kept as oracles: they check
# each identity through the full coproduct, and the per-monomial ones on
# every monomial instead of relying on the coproduct being an algebra
# morphism.

def _full_coassociativity(spec, monomials):
    """(coproduct (x) id) vs (id (x) coproduct) after one full coproduct."""
    problems, memo = [], {}
    full = oracle.full_coproduct
    for m in monomials:
        once = full(spec, m, memo)
        if oracle.splice(spec, once, 0, memo, full) != oracle.splice(spec, once, 1, memo, full):
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
    problems, memo = [], {}
    for m in monomials_up_to(spec, max_degree):
        once = oracle.full_coproduct(spec, m, memo).items()
        left = Polynomial((b, c) for (a, b), c in once if a.is_unit)
        right = Polynomial((a, c) for (a, b), c in once if b.is_unit)
        expect = Polynomial.single(m)
        if left != expect:
            problems.append(f"left counit failed on {m}: got {left}")
        if right != expect:
            problems.append(f"right counit failed on {m}: got {right}")
    return problems


def monomial_antipode(spec, method="forest"):
    """The antipode on monomials, one `antipode_poly` call each."""
    return lambda m: antipode_poly(spec, Polynomial.single(m), method)


def _convolution_per_monomial(spec, monomials, antipode):
    """The convolution check on each monomial given, from that monomial's
    own coproduct and antipode rather than from its generators'."""
    problems, memo = [], {}
    for m in monomials:
        expect = Polynomial.one() if m.is_unit else Polynomial.zero()
        got = Polynomial(
            (sa * b, c * ca)
            for (a, b), c in oracle.full_coproduct(spec, m, memo).items()
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
            antipode = monomial_antipode(spec, method)
            got = convolution_check(spec, degree, method)
            assert got == _convolution_per_monomial(spec, generators, antipode)
            everywhere = _convolution_per_monomial(spec, monomials, antipode)
            assert bool(got) == bool(everywhere), method
            verdicts.append(
                f"antipode convolution ({method}): {'FAIL' if everywhere else 'ok'}"
            )
        assert out[4:] == verdicts + ["VERIFY: FAIL"]


@pytest.mark.parametrize(
    "make",
    [
        lambda: faa_di_bruno_spec(6),
        lambda: sym_spec(8),
        lambda: dualize(grafting_instance(5), 5),
    ],
    ids=["fdb-6", "sym-8", "grafting-5-dual"],
)
def test_frame_coproducts_match_the_tensor_oracle(make):
    # Every monomial of degree <= 6 on its own, then all of them in one
    # polynomial with distinct fractional coefficients: the full coproduct
    # and the iterated reduced coproducts at ranks 1 to 5, each on a private
    # frame, against the Tensor engine.
    spec = make()
    memo = {}
    monomials = monomials_up_to(spec, 6)
    for m in monomials:
        p = Polynomial.single(m)
        assert coproduct_poly(spec, p) == oracle.coproduct(spec, p, memo), m
        for k in range(1, 6):
            if m.is_unit and k > 1:
                with pytest.raises(InputError, match="got constant 1$"):
                    iterated_reduced_poly(spec, p, k)
                continue
            assert iterated_reduced_poly(spec, p, k) == oracle.iterated_reduced(
                spec, p, k, memo
            ), (m, k)
    p = Polynomial((m, Fraction(n + 1, 3)) for n, m in enumerate(monomials[1:]))
    assert coproduct_poly(spec, p) == oracle.coproduct(spec, p, memo)
    for k in range(1, 6):
        assert iterated_reduced_poly(spec, p, k) == oracle.iterated_reduced(spec, p, k, memo)


def _coassociativity_by_reduced_splice(spec, max_degree):
    """The report on the Tensor engine: the two splices of each generator's
    reduced coproduct, by degree, then id."""
    problems, memo = [], {}
    for m in monomials_up_to(spec, max_degree):
        if len(m) == 1:
            once = oracle.reduced_coproduct(spec, m, memo)
            if oracle.splice(spec, once, 0, memo) != oracle.splice(spec, once, 1, memo):
                problems.append(f"coassociativity failed on {m}")
    return problems


@pytest.mark.parametrize("raise_by", [1, Fraction(1, 3)], ids=["+1", "+1/3"])
def test_packed_coassociativity_gives_the_tensor_report_on_corruptions(corrupted, raise_by):
    # The packed splices print the Tensor engine's lines on the clean table
    # and on every copy with one row coefficient raised by 1 or by 1/3.
    _, base, degree, _ = corrupted
    assert coassociativity_report(base, degree) == []
    for k, e in enumerate(base.entries):
        entries = list(base.entries)
        entries[k] = CoproductEntry(e.source, e.left, e.right, e.coeff + raise_by)
        spec = CoproductSpec("corrupt", base.generators.values(), entries)
        got = coassociativity_report(spec, degree)
        assert got and got == _coassociativity_by_reduced_splice(spec, degree), e


def test_library_convolution_builds_one_frame(frames_built):
    # The check puts one frame over the generators it visits, so the route
    # values it reads in ascending id order share it and every lower value.
    spec = faa_di_bruno_spec(16)
    for method in METHODS:
        assert convolution_check(spec, 16, method) == []
    assert len(frames_built) == 1


def test_verify_builds_one_frame(frames_built, monkeypatch, capsys):
    # Coassociativity builds it; the route values, the convolution and
    # Dyson-Salam's reduced coproducts reuse it.
    spec = dualize(grafting_instance(5), 5)
    monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
    assert cli.run(["verify", "--spec", "-", "--max-degree", "5"]) == 0
    assert capsys.readouterr().out.endswith("VERIFY: PASS\n")
    assert len(frames_built) == 1


@pytest.mark.parametrize("raise_by", [1, Fraction(1, 3)], ids=["+1", "+1/3"])
@pytest.mark.parametrize(
    "make, degree, rows",
    [
        (lambda: faa_di_bruno_spec(6), 6, 31),
        (lambda: faa_di_bruno_spec(8), 8, 79),
        (lambda: dualize(grafting_instance(5), 5), 5, 68),
    ],
    ids=["fdb-6", "fdb-8", "grafting-5-dual"],
)
def test_packed_convolution_and_counit_give_the_tensor_lines(make, degree, rows, raise_by):
    # On the clean table and on every copy with one row coefficient raised,
    # the packed checks print the lines of the Tensor-term checks, for every
    # route; all three read the same memoized route values.
    base = make()
    assert len(base.entries) == rows
    tables = [base]
    for k, e in enumerate(base.entries):
        entries = list(base.entries)
        entries[k] = CoproductEntry(e.source, e.left, e.right, e.coeff + raise_by)
        tables.append(CoproductSpec("corrupt", base.generators.values(), entries))
    failed = 0
    for spec in tables:
        assert counit_report(spec, degree) == oracle.counit_report(spec, degree) == []
        for method in METHODS:
            got = convolution_check(spec, degree, method)
            antipode = monomial_antipode(spec, method)
            assert got == oracle.convolution_check(spec, degree, antipode), method
            failed += bool(got)
    assert failed > 0


def test_convolution_reads_nothing_without_generators(frames_built, monkeypatch):
    def route(spec, i):
        raise AssertionError(f"read b{i}")

    monkeypatch.setattr("hopfforest.antipode._forest", route)
    assert convolution_check(faa_di_bruno_spec(4), 0, "forest") == []
    assert frames_built == []


def test_fdb8_verify_and_dualize_build_one_frame_each(frames_built, monkeypatch, capsys):
    # verify on the composition table, and dualize, whose coassociativity
    # and counit checks share one frame.
    spec = faa_di_bruno_spec(8)
    monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
    assert cli.run(["verify", "--spec", "-", "--max-degree", "8"]) == 0
    assert capsys.readouterr().out.endswith("VERIFY: PASS\n")
    assert len(frames_built) == 1
    monkeypatch.setattr(cli, "load_prelie_file", lambda path: grafting_instance(5))
    assert cli.run(["dualize", "--prelie", "-", "--max-degree", "5"]) == 0
    assert len(frames_built) == 2


@pytest.mark.parametrize(
    "make, degree",
    [
        (lambda: faa_di_bruno_spec(8), 8),
        (lambda: faa_di_bruno_spec(8), 10),
        (lambda: dualize(grafting_instance(5), 5), 7),
        (lambda: faa_di_bruno_spec(4), 6),
    ],
    ids=["fdb-8-at-8", "fdb-8-at-10", "grafting-5-dual-at-7", "fdb-4-at-6"],
)
def test_verify_builds_one_frame_at_any_max_degree(
    make, degree, frames_built, monkeypatch, capsys
):
    # A --max-degree above every generator's makes no route value longer,
    # so no key could carry and the convolution reads the routes' frame.
    base = make()
    spec = CoproductSpec(base.name, base.generators.values(), base.entries)  # no frame yet
    frames_built.clear()
    monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
    assert cli.run(["verify", "--spec", "-", "--max-degree", str(degree)]) == 0
    assert capsys.readouterr().out.endswith("VERIFY: PASS\n")
    assert len(frames_built) == 1


def test_library_calls_share_one_frame(frames_built):
    # The iterate's frame serves every route and the tree counts after it.
    spec = faa_di_bruno_spec(6)
    iterated_reduced(spec, 6, 3)
    for method in METHODS:
        antipode_generator(spec, 6, method)
    term_stats(spec, 6)
    assert len(frames_built) == 1


def test_a_polynomial_past_the_frame_gets_a_wider_one(frames_built):
    # b1^9 would carry out of the 3-bit fields of a frame up to degree 4.
    spec = faa_di_bruno_spec(4)
    narrow = coproduct.frame_over(spec, spec.generator_ids())
    p = Polynomial.single(mono(*[1] * 9))
    assert coproduct_poly(spec, p) == oracle.coproduct(spec, p)
    wide = coproduct.frame_over(spec, [1], 9)
    assert wide is not narrow and wide.degree == 9 and len(frames_built) == 2
    assert coproduct_poly(spec, p * 2) == 2 * oracle.coproduct(spec, p)
    assert len(frames_built) == 2


def test_alternating_calls_settle_on_one_wider_frame(frames_built):
    # b1^20 needs a frame of degree 20 and b12 one that numbers b12: the
    # second frame numbers what the first did as well, so it serves both.
    spec = faa_di_bruno_spec(12)
    power, top = Polynomial.single(mono(*[1] * 20)), Polynomial.variable(12)
    memo = {}
    expected = oracle.coproduct(spec, power, memo), oracle.iterated_reduced(spec, top, 3, memo)
    for _ in range(5):
        assert (coproduct_poly(spec, power), iterated_reduced_poly(spec, top, 3)) == expected
    assert len(frames_built) == 2


def test_verify_and_compare_decode_each_packed_monomial_once(monkeypatch, capsys):
    # The route values of all three routes and every failure line decode
    # through one memo on the frame.
    decoded = []
    decode = coproduct._Frame._monomial

    def counted(self, m):
        decoded.append((self, m))
        return decode(self, m)

    monkeypatch.setattr(coproduct._Frame, "_monomial", counted)
    base = dualize(grafting_instance(5), 5)
    entries = list(base.entries)
    e = entries[-1]
    entries[-1] = CoproductEntry(e.source, e.left, e.right, e.coeff + Fraction(1, 3))
    for spec in (base, CoproductSpec("corrupt", base.generators.values(), entries)):
        monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
        for command in ("verify", "compare"):
            cli.run([command, "--spec", "-", "--max-degree", "5"])
    assert "convolution failed" in capsys.readouterr().err
    assert decoded and len(decoded) == len(set(decoded))


def test_decoding_inverts_packing():
    # Fields are read lowest first and numbered in id order, so a decoded
    # monomial needs no sort.
    spec = dualize(grafting_instance(5), 5)
    frame = coproduct.frame_over(spec, spec.generator_ids())
    for m in monomials_up_to(spec, frame.degree):
        assert frame.monomial(frame.pack(m)) == m


#: The corruptions of each `corrupted` table on which Bogoliubov's values
#: differ from the forest route's: all but the fdb-6 rows (6; 3; [3]) and
#: (6; 2; [1, 1, 2]), where c * S(b_l) * b_J and c * b_l * prod S(b_j) are
#: the same product.
BOGOLIUBOV_DIFFERS = {"fdb-6": 29, "grafting-5-dual": 68}


def _fresh(spec):
    """A copy of spec with empty memos."""
    return CoproductSpec(spec.name, spec.generators.values(), spec.entries)


@pytest.fixture
def decodes(monkeypatch):
    """The packed values `_Frame.polynomial` decodes, in order."""
    decoded = []
    polynomial = coproduct._Frame.polynomial

    def counted(self, packed):
        decoded.append(packed)
        return polynomial(self, packed)

    monkeypatch.setattr(coproduct._Frame, "polynomial", counted)
    return decoded


@pytest.mark.parametrize(
    "make, degree",
    [(lambda: faa_di_bruno_spec(8), 8), (lambda: dualize(grafting_instance(5), 5), 5)],
    ids=["fdb-8", "grafting-5-dual"],
)
def test_verify_and_compare_decode_nothing_on_a_passing_table(
    make, degree, decodes, monkeypatch, capsys
):
    # Every check compares or sums packed values; an answer that passes
    # prints no value, so none is decoded.
    spec = make()
    monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
    for command in ("verify", "compare"):
        assert cli.run([command, "--spec", "-", "--max-degree", str(degree)]) == 0
    assert capsys.readouterr().err == ""
    assert decodes == []


def test_verify_and_compare_decode_only_what_fails(corrupted, decodes, monkeypatch, capsys):
    # On every single-coefficient corruption, each command on a fresh copy
    # decodes the three route values of each generator the methods disagree
    # on, and each failing convolution's sum, and nothing else.
    _, _, degree, tables = corrupted
    argv = ["--spec", "-", "--max-degree", str(degree)]
    decoded_any = 0
    for table in tables:
        for command in ("verify", "compare"):
            spec = _fresh(table)
            monkeypatch.setattr(cli, "load_spec_file", lambda path: spec)
            decodes.clear()
            rc = cli.run([command, *argv])
            out, err = capsys.readouterr()
            lines = err.splitlines()
            if command == "verify":
                disagree = sum(line.startswith("  methods disagree") for line in lines)
                failed = sum(line.startswith("  convolution failed") for line in lines)
                coassociativity = sum(line.startswith("  coassociativity") for line in lines)
                assert rc == 1 and len(lines) == disagree + failed + coassociativity
            else:
                disagree, failed = out.count("agree=NO"), 0
                assert rc == bool(disagree) and err == ""
            assert len(decodes) == 3 * disagree + failed
            decoded_any += bool(decodes)
    assert decoded_any == 2 * BOGOLIUBOV_DIFFERS[corrupted[0]]


def test_method_convolution_and_agreement_on_packed_values(corrupted):
    # On the clean table and every corruption: the convolution of a method
    # name, summed off the route's packed memo, prints what the map's and
    # the Tensor oracle's print; two routes' packed values on one frame are
    # equal exactly when their decoded values are; and Dyson-Salam's memo
    # holds what a fresh copy computes.
    _, base, degree, tables = corrupted
    for table in [base, *tables]:
        spec = _fresh(table)
        ids = spec.generator_ids()
        frame = coproduct.frame_over(spec, ids)
        for method in METHODS:
            got = convolution_check(spec, degree, method)
            antipode = monomial_antipode(spec, method)
            assert got == oracle.convolution_check(spec, degree, antipode)
        assert coproduct.frame_over(spec, ids) is frame
        for i in ids:
            packed = [packed_route(method)(spec, i) for method in METHODS]
            assert all(f is frame for f, _ in packed)
            decoded = [antipode_generator(spec, i, method) for method in METHODS]
            for (_, p), d in zip(packed[1:], decoded[1:]):
                assert (p == packed[0][1]) == (d == decoded[0])
        fresh = _fresh(table)
        assert frame.dyson_salam.keys() == set(ids)
        for i, packed in frame.dyson_salam.items():
            assert frame.polynomial(packed) == antipode_dyson_salam(fresh, i)


def test_convolution_rejects_an_unknown_method():
    # The name is checked before the degree bound, so a bound that visits no
    # generator refuses it too, as the other antipode entry points do; a map
    # is no method name.
    spec = faa_di_bruno_spec(3)
    for max_degree in (3, 0):
        with pytest.raises(InputError, match="^unknown antipode method 'newton'"):
            convolution_check(spec, max_degree, "newton")
    with pytest.raises(InputError, match="^unknown antipode method <function "):
        convolution_check(spec, 3, monomial_antipode(spec))


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, p: antipode_poly(spec, p),
        lambda spec, p: coproduct_poly(spec, p),
        lambda spec, p: iterated_reduced_poly(spec, p, 2),
    ],
    ids=["antipode_poly", "coproduct_poly", "iterated_reduced_poly"],
)
@pytest.mark.parametrize(
    "p, kind",
    [(Tensor.single((mono(2), mono(1))), "Tensor"), ({mono(1): 1}, "dict")],
    ids=["tensor", "dict"],
)
def test_polynomial_entry_points_refuse_anything_else(call, p, kind):
    # Each read any value with .items(): a rank-2 tensor failed as an
    # unknown generator id b2, and a plain dict passed as a polynomial.
    with pytest.raises(InputError, match=f"^expected a Polynomial, got {kind}$"):
        call(faa_di_bruno_spec(3), p)


@pytest.mark.parametrize("method", [["forest"], {}, {"forest"}], ids=["list", "dict", "set"])
def test_an_unhashable_method_is_an_unknown_method(method):
    # Such a method crashed the name test (TypeError: unhashable type).
    spec = faa_di_bruno_spec(3)
    calls = [
        lambda: convolution_check(spec, 3, method),
        lambda: antipode_generator(spec, 2, method),
        lambda: antipode_poly(spec, Polynomial.variable(2), method),
        lambda: packed_route(method),
    ]
    for call in calls:
        with pytest.raises(InputError, match=f"^unknown antipode method {re.escape(repr(method))}"):
            call()
