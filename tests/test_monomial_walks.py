"""The closed forms on monomials against the walks of `monomial_walks`: the
enumerator's degrees, the composition table against the Bell recurrence,
the unshuffle coproduct against position masks, and the preLie frame's
packed unshuffle against it, with its basis primitive, the grafting basis
sizes, the Witt table dualized into the composition table, and the vector
fields in k variables, the Witt table at k = 1."""

import pytest

from hopfforest import cli
from hopfforest.algebra import Monomial, Tensor, mono
from hopfforest.enveloping import _frame_of
from hopfforest.hopfspec import faa_di_bruno_spec, graded_monomials, save_spec
from hopfforest.prelie import dualize, grafting_instance, guin_oudom_mul, prelie_check

from monomial_walks import faa_di_bruno_recurrence, mask_unshuffle, witt
from prelie_recursions import unshuffle_coproduct
from vector_fields import vector_fields


def test_graded_monomials_pair_each_monomial_with_its_degree():
    spec = grafting_instance(5)
    pairs = graded_monomials(spec.basis.values(), 5)
    assert all(d == spec.monomial_degree(m) <= 5 for m, d in pairs)
    assert [d for _, d in pairs] == sorted(d for _, d in pairs)
    assert graded_monomials(spec.basis.values(), 0) == [(Monomial(), 0)]
    assert graded_monomials(spec.basis.values(), -1) == []


@pytest.mark.parametrize("n", range(1, 17))
def test_composition_table_matches_the_bell_recurrence(n):
    assert save_spec(faa_di_bruno_spec(n)) == save_spec(faa_di_bruno_recurrence(n))


def test_unshuffle_matches_the_position_masks():
    spec = grafting_instance(6)
    monomials = [m for m, _ in graded_monomials(spec.basis.values(), 6)]
    monomials += [mono(*[1] * k) for k in range(9)]
    for m in monomials:
        assert unshuffle_coproduct(m) == mask_unshuffle(m), m


def test_packed_unshuffle_matches_the_unshuffle_coproduct():
    # Each split once, its key b1 + (b2 << shift), weights as the walk over
    # distinct factors gives them.
    spec = grafting_instance(6)
    frame = _frame_of(spec, 8)
    monomials = [m for m, _ in graded_monomials(spec.basis.values(), 6)]
    monomials += [mono(*[1] * k) for k in range(9)]
    for m in monomials:
        splits = frame.product_of(frame.full, frame.pack(m))
        got = Tensor(2, [((frame.monomial(k & frame.slot), frame.monomial(k >> frame.shift)), c)
                         for k, c in splits.items()])
        assert len(got) == len(splits) and got == unshuffle_coproduct(m), m


@pytest.mark.parametrize("make", [lambda: grafting_instance(6), lambda: witt(8),
                                  lambda: vector_fields(2, 4)],
                         ids=["grafting-6", "witt-8", "vector-fields-2-4"])
def test_every_basis_element_is_primitive_on_the_prelie_frame(make):
    # The enveloping algebra's generators: b (x) 1 + 1 (x) b each, stored as
    # the frame is built, beside the unit's 1 (x) 1 and nothing else.
    spec = make()
    frame = _frame_of(spec)
    primitive = {f: {f: 1, f << frame.shift: 1} for f in frame.field.values()}
    assert frame.full == {0: {0: 1}} | primitive
    # products fill the memo with monomials and leave the generators' alone
    low = min(spec.basis_ids(), key=spec.degree)
    for b, _ in graded_monomials(spec.basis.values(), spec.truncation - 2 * spec.degree(low)):
        guin_oudom_mul(spec, mono(low, low), b)
    assert spec._frame is frame and len(frame.full) > len(primitive) + 1
    assert {f: frame.full[f] for f in primitive} == primitive


def test_unshuffle_of_a_power_has_binomial_weights():
    got = unshuffle_coproduct(mono(1, 1, 1, 1))
    assert len(got) == 5
    ones = [mono(*[1] * k) for k in range(5)]
    assert [got.coefficient((ones[k], ones[4 - k])) for k in range(5)] == [1, 4, 6, 4, 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_grafting_basis_degrees_are_vertex_counts(n):
    spec = grafting_instance(n)
    for g in spec.basis.values():
        assert g.degree == g.label.count("[")
    fitting = {
        (i, j)
        for i in spec.basis_ids()
        for j in spec.basis_ids()
        if spec.degree(i) + spec.degree(j) <= n
    }
    assert set(spec.products) == fitting


@pytest.mark.parametrize("n", range(1, 13))
def test_witt_table_dualizes_to_the_composition_table(n):
    table = witt(n)
    assert prelie_check(table) == []
    dual = save_spec(dualize(table, n)).splitlines()
    fdb = save_spec(faa_di_bruno_spec(n)).splitlines()
    assert dual[:2] == ["{", f'  "name": "witt-{n}-dual",']
    assert dual[2:] == fdb[2:]


@pytest.mark.parametrize("top", range(1, 11))
def test_vector_fields_in_one_variable_are_the_witt_table(top):
    one, table = vector_fields(1, top), witt(top)
    assert dict(one.products) == dict(table.products)
    assert one.basis_ids() == table.basis_ids()
    assert all(one.degree(i) == table.degree(i) for i in one.basis_ids())


@pytest.mark.parametrize("k, top, size, rows", [(2, 4, 36, 450), (3, 2, 48, 162)])
def test_vector_fields_are_prelie_and_their_dual_verifies(k, top, size, rows, tmp_path, capsys):
    table = vector_fields(k, top)
    assert len(table.basis) == size and prelie_check(table) == []
    dual = dualize(table, top)
    assert len(dual.entries) == rows
    path = tmp_path / "dual.json"
    path.write_text(save_spec(dual))
    assert cli.run(["verify", "--spec", str(path), "--max-degree", str(top)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "VERIFY: PASS"
