"""The closed forms on monomials against the walks of `monomial_walks`: the
enumerator's degrees, the composition table against the Bell recurrence,
the unshuffle coproduct against position masks, and the preLie frame's
packed unshuffle against it, the grafting basis sizes, and the Witt table
dualized into the composition table."""

import pytest

from hopfforest.algebra import Monomial, Tensor, mono
from hopfforest.enveloping import _frame_of
from hopfforest.hopfspec import faa_di_bruno_spec, graded_monomials, save_spec
from hopfforest.prelie import dualize, grafting_instance, prelie_check

from monomial_walks import faa_di_bruno_recurrence, mask_unshuffle, witt
from prelie_recursions import unshuffle_coproduct


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
    # Each split once, weights as the walk over distinct factors gives them.
    spec = grafting_instance(6)
    frame = _frame_of(spec, 8)
    monomials = [m for m, _ in graded_monomials(spec.basis.values(), 6)]
    monomials += [mono(*[1] * k) for k in range(9)]
    for m in monomials:
        splits = frame.unshuffle(frame.pack(m))
        got = Tensor(2, [((frame.monomial(b1), frame.monomial(b2)), c) for b1, b2, c in splits])
        assert len(got) == len(splits) and got == unshuffle_coproduct(m), m


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
