"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line and enforcing its runtime budget.  All comparisons
are exact rational equalities; there are no tolerances anywhere.

Each criterion builds its own objects from scratch so the measured time is
self-contained rather than riding on caches warmed by other tests."""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from math import prod

from hopfforest.algebra import Polynomial, Tensor, mono
from hopfforest.antipode import (
    METHODS,
    antipode_generator,
    term_stats,
)
from hopfforest.cli import run as cli_run
from hopfforest.coproduct import (
    convolution_check,
    iterated_reduced,
)
from hopfforest.hopfspec import faa_di_bruno_spec
from hopfforest.linearize import Linearization, k_linearizations
from hopfforest.prelie import (
    associativity_report,
    brace_action,
    dualize,
    filtration_report,
    grafting_instance,
    guin_oudom_mul,
    prelie_check,
)
from hopfforest.trees import enumerate_trees, leaf, node, view_of

import coproduct_oracle as oracle
from corolla_cuts import corolla_cuts
from json_documents import spec_to_dict
from test_coproduct import monomial_antipode
from test_linearize import assert_expansion_matches
from tree_walkers import height, tree_coefficient


@contextmanager
def criterion(capfd, number, name, budget_seconds):
    """Prints the verdict line with capture suspended (so it shows up in a
    normal pytest run, not only on failure) and enforces the runtime
    budget."""
    start = time.perf_counter()

    def report(verdict, elapsed):
        with capfd.disabled():
            print(
                f"\nACCEPTANCE {number} ({name}): {verdict} [{elapsed:.2f}s]",
                flush=True,
            )

    try:
        yield
    except BaseException:
        report("FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        report("FAIL", elapsed)
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget "
            f"({elapsed:.1f}s)"
        )
    report("PASS", elapsed)


def test_criterion_1_golden_values(capfd):
    with criterion(capfd, 1, "golden coproducts and antipode", 1.0):
        spec = faa_di_bruno_spec(6)
        assert iterated_reduced(spec, 1, 2).is_zero
        assert iterated_reduced(spec, 2, 2) == Tensor.single(
            (mono(1), mono(1)), 3
        )
        three = iterated_reduced(spec, 3, 2)
        assert three == (
            Tensor.single((mono(2), mono(1)), 6)
            + Tensor.single((mono(1), mono(1, 1)), 3)
            + Tensor.single((mono(1), mono(2)), 4)
        )
        expected = Polynomial({mono(3): -1, mono(1, 2): 10, mono(1, 1, 1): -15})
        for method in METHODS:
            assert antipode_generator(spec, 3, method) == expected


def test_criterion_2_term_counts(capfd):
    with criterion(capfd, 2, "term counts and degree-3 trees", 1.0):
        spec = faa_di_bruno_spec(6)
        stats = term_stats(spec, 3)
        assert stats.dyson_salam_terms == 6
        assert stats.forest_terms == 5
        assert set(enumerate_trees(spec, 3)) == {
            node(3, 1, [leaf(1), leaf(1)]),
            node(3, 1, [node(2, 1, [leaf(1)])]),
            node(3, 1, [leaf(2)]),
            node(3, 2, [leaf(1)]),
            leaf(3),
        }


def test_criterion_3_method_agreement_at_scale(capfd):
    with criterion(capfd, 3, "method agreement and convolution", 60.0):
        fdb = faa_di_bruno_spec(6)
        dual = dualize(grafting_instance(4), 4)
        for spec, max_degree in ((fdb, 6), (dual, 4)):
            for i in spec.generator_ids():
                values = {antipode_generator(spec, i, m) for m in METHODS}
                assert len(values) == 1
            for method in METHODS:
                antipode = monomial_antipode(spec, method)
                got = convolution_check(spec, max_degree, method)
                assert got == oracle.convolution_check(spec, max_degree, antipode) == []


def test_criterion_4_linearization_expansion(capfd):
    with criterion(capfd, 4, "linearization expansion of iterated coproducts", 30.0):
        spec = faa_di_bruno_spec(6)
        assert iterated_reduced(spec, 3, 3) == Tensor.single(
            (mono(1), mono(1), mono(1)), 18
        )
        for i in (2, 3, 4, 5):
            for k in (2, 3, 4):
                assert_expansion_matches(spec, (i,), k)


def random_tree(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    children = {v: [] for v in range(n)}
    for v in range(1, n):
        children[rng.randrange(v)].append(v)

    def build(v):
        kids = [build(c) for c in children[v]]
        return leaf(1) if not kids else node(1, 1, kids)

    return build(0)


def test_criterion_5_alternating_sums(capfd):
    with criterion(capfd, 5, "alternating level-count sums", 30.0):
        rng = random.Random(20260825)
        for _ in range(200):
            t = random_tree(rng, 8)
            view = view_of(t)
            total = sum(
                (-1) ** k * len(k_linearizations(view, k))
                for k in range(1, len(view.vertices) + 1)
            )
            assert total == (-1) ** len(view.vertices)


def example_tree():
    return node(6, 1, [node(2, 1, [leaf(1)]), node(3, 1, [leaf(1), leaf(1)])])


def check_cut_bijection(t, k):
    """(k+1)-level assignments of the tree correspond one-to-one to triples
    (cut, k-level assignment of the quotient whose top fiber is the cut's
    minima, 2-level assignment of the cut); the original fibers are the
    quotient fibers below the top plus the cut fibers."""
    view = view_of(t)
    cuts = corolla_cuts(t)
    by_vertices = {c.vertices: c for c in cuts}

    direct = k_linearizations(view, k + 1)

    # Triple side: every (cut, quotient assignment topping out on the cut's
    # minima, cut assignment) reconstructs to a valid (k+1)-level assignment
    # by splicing the cut's two levels in place of the quotient's top level.
    triples = set()
    for c in cuts:
        for g in k_linearizations(c.quotient_view, k):
            if g.fibers[-1] != c.meet:
                continue
            for h in k_linearizations(c.cut_view, 2):
                rebuilt = Linearization(g.fibers[: k - 1] + h.fibers)
                assert rebuilt in direct
                triples.add((c.vertices, g.fibers, h.fibers))

    # Assignment side: splitting off the top two levels lands on a cut and
    # yields exactly one such triple per assignment.
    mapped = set()
    for f in direct:
        members = f.fibers[k - 1] | f.fibers[k]
        assert members in by_vertices  # the top two levels always form a cut
        c = by_vertices[members]
        g_fibers = f.fibers[: k - 1] + (c.meet,)
        h_fibers = (f.fibers[k - 1], f.fibers[k])
        assert Linearization(g_fibers) in k_linearizations(
            c.quotient_view, k
        )
        assert Linearization(h_fibers) in k_linearizations(c.cut_view, 2)
        mapped.add((c.vertices, g_fibers, h_fibers))

    assert len(mapped) == len(direct)
    assert mapped == triples


def test_criterion_6_corolla_cuts(capfd):
    with criterion(capfd, 6, "corolla cuts and the level-splitting bijection", 10.0):
        spec = faa_di_bruno_spec(6)
        t = example_tree()
        cuts = corolla_cuts(t)
        assert len(cuts) == 14
        assert sum(1 for c in cuts if max(map(height, c.cut)) == 1) == 7
        assert sum(1 for c in cuts if max(map(height, c.cut)) == 2) == 7
        lam = tree_coefficient(t, spec)
        assert lam == 315
        for c in cuts:
            quotient_lam = tree_coefficient(c.quotient, spec)
            cut_lam = prod(tree_coefficient(u, spec) for u in c.cut)
            assert quotient_lam != 0 and cut_lam != 0
            assert lam == quotient_lam * cut_lam
        for k in (1, 2, 3):
            check_cut_bijection(t, k)


def test_criterion_7_prelie_suite(capfd):
    with criterion(capfd, 7, "preLie suite", 30.0):
        pl = grafting_instance(4)
        assert pl.validate() == []
        assert prelie_check(pl) == []

        def brace(i, m):
            return brace_action(pl, i, m)

        ids = pl.basis_ids()
        # Two factors against one basis element:
        #   a1 a2 * b  =  a1 a2 b + (a1 . b) a2 + a1 (a2 . b)
        for a1 in ids:
            for a2 in ids:
                for b in ids:
                    if pl.degree(a1) + pl.degree(a2) + pl.degree(b) > 4:
                        continue
                    got = guin_oudom_mul(pl, mono(a1, a2), mono(b))
                    expected = (
                        Polynomial.single(mono(a1, a2, b))
                        + brace(a1, mono(b)) * Polynomial.variable(a2)
                        + Polynomial.variable(a1) * brace(a2, mono(b))
                    )
                    assert got == expected
        # One factor against two:
        #   a * b1 b2  =  a b1 b2 + b1 (a . b2) + b2 (a . b1)
        #                 + (a . b1) . b2  -  a . (b1 . b2)
        for a in ids:
            for b1 in ids:
                for b2 in ids:
                    if pl.degree(a) + pl.degree(b1) + pl.degree(b2) > 4:
                        continue
                    got = guin_oudom_mul(pl, mono(a), mono(b1, b2))
                    nested = Polynomial.zero()
                    for m, c in brace(a, mono(b1)).terms():
                        nested = nested + brace(m.indices[0], mono(b2)) * c
                    correction = Polynomial.zero()
                    for m, c in brace(b1, mono(b2)).terms():
                        correction = correction + brace(a, m) * c
                    expected = (
                        Polynomial.single(mono(a, b1, b2))
                        + Polynomial.variable(b1) * brace(a, mono(b2))
                        + Polynomial.variable(b2) * brace(a, mono(b1))
                        + nested
                        - correction
                    )
                    assert got == expected

        assert associativity_report(pl) == []
        assert filtration_report(pl) == []


def test_criterion_8_corruption_sensitivity(tmp_path, capfd):
    with criterion(capfd, 8, "corruption sensitivity", 30.0):
        rng = random.Random(8)
        base = spec_to_dict(faa_di_bruno_spec(4))
        for trial in range(10):
            doc = json.loads(json.dumps(base))
            entry = rng.choice(doc["coproduct"])
            entry["coeff"] = str(int(entry["coeff"]) + rng.randint(1, 3))
            path = tmp_path / f"corrupt{trial}.json"
            path.write_text(json.dumps(doc))
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli_run(
                    ["verify", "--spec", str(path), "--max-degree", "4"]
                )
            assert code != 0
            assert "VERIFY: FAIL" in buffer.getvalue()
