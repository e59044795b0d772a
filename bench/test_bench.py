"""Tests of the benchmark's own pieces: the independent oracles, the tracer
and the failure accounting.  Not part of the package's test suite; run with
``python3 -m pytest bench/test_bench.py`` from the repository root."""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import hopfforest  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from hopfforest import cli  # noqa: E402


def test_lagrange_oracle_matches_library_antipode():
    spec = hopfforest.faa_di_bruno_spec(6)
    rng = random.Random(7)
    for n in range(1, 7):
        point = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(1, 7)}
        poly = oracles.parse_polynomial(hopfforest.antipode_generator(spec, n).render())
        assert oracles.evaluate(poly, point) == oracles.lagrange_antipode(n, point)


def test_lagrange_oracle_closed_form_low_degree():
    # S(b1) = -b1 and S(b2) = -b2 + 3 b1b1 on the composition table.
    point = {1: Fraction(2, 3), 2: Fraction(-5, 7)}
    assert oracles.lagrange_antipode(1, point) == Fraction(-2, 3)
    assert oracles.lagrange_antipode(2, point) == Fraction(5, 7) + 3 * Fraction(4, 9)


def test_parse_polynomial_round_trips_rendering():
    spec = hopfforest.dualize(hopfforest.grafting_instance(5), 5)
    for i in spec.generator_ids():
        value = hopfforest.antipode_generator(spec, i)
        parsed = oracles.parse_polynomial(value.render())
        assert parsed == {m.indices: c for m, c in value.terms()}
    with pytest.raises(ValueError):
        oracles.parse_polynomial("1 b1 b2")


@pytest.mark.parametrize(
    "spec",
    [
        hopfforest.faa_di_bruno_spec(6),
        hopfforest.dualize(hopfforest.grafting_instance(6), 6),
    ],
    ids=["fdb6", "graft6-dual"],
)
def test_tree_count_recursion_matches_enumeration(spec):
    counts = oracles.realized_tree_counts(json.loads(hopfforest.save_spec(spec)))
    assert counts == {i: len(hopfforest.enumerate_trees(spec, i)) for i in spec.generator_ids()}


def test_check_compare_flags_wrong_forest_count():
    doc = json.loads(hopfforest.save_spec(hopfforest.faa_di_bruno_spec(4)))
    good = "b1: dyson-salam=1 forest=1 agree=yes\nb2: dyson-salam=2 forest=2 agree=yes\n"
    assert oracles.check_compare(good, doc, 2) == []
    assert oracles.check_compare(good.replace("forest=2", "forest=3"), doc, 2)
    assert oracles.check_compare(good.replace("agree=yes\n", "agree=NO\n"), doc, 2)


def _package_bindings() -> dict:
    """Every module global, module-level dict value and class attribute of
    the package, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "hopfforest" and not name.startswith("hopfforest."):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    out[name, key, repr(k)] = v
            if isinstance(value, type) and value.__module__ == name:
                for attr, v in vars(value).items():
                    out[name, key, attr] = v
    return out


def test_tracer_rebinds_every_reference_and_restores_them():
    before = _package_bindings()
    with tracer_mod.Tracer():
        during = _package_bindings()
        # rebound where imported and in the method dispatch table too
        original = before["hopfforest.trees", "enumerate_trees"]
        assert hopfforest.antipode.enumerate_trees is not original
        assert hopfforest.cli.enumerate_trees is hopfforest.antipode.enumerate_trees
        assert (
            hopfforest.antipode._GENERATOR_METHODS["forest"]
            is not before["hopfforest.antipode", "antipode_forest"]
        )
    after = _package_bindings()
    changed = [k for k in before if during[k] is not before[k]]
    assert len(changed) >= len(tracer_mod.SPANS) + len(tracer_mod.COUNTS)
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_counts_and_self_time(tmp_path):
    path = tmp_path / "fdb6.json"
    path.write_text(hopfforest.save_spec(hopfforest.faa_di_bruno_spec(6)))
    with tracer_mod.Tracer() as tr:
        rc, out, _ = workloads.invoke(
            cli, ["antipode", "--spec", str(path), "--element", "6", "--method", "forest"]
        )
    assert rc == 0
    assert tr.counters["trees.trees_enumerated_count"] == 90
    assert tr.counters["antipode.terms_out_count"] == len(oracles.parse_polynomial(out))
    counts = tr.span_counts()
    assert counts["cli.self"] == 1 and counts["antipode.forest"] == 1
    self_times = tr.self_times()
    total = tr.span_end[0] - tr.span_start[0]  # the cli.run span encloses all
    assert sum(self_times.values()) == pytest.approx(total)
    assert all(v >= 0 for v in self_times.values())


def _plan_subset(workload, tmp_path, metric):
    workdir = str(tmp_path)
    workload.write_inputs(hopfforest, cli, workdir, 3)
    return [c for c in workload.plan(workdir, 3) if c.metric == metric]


def test_planted_wrong_antipode_is_a_failure_not_a_speedup(tmp_path, monkeypatch):
    commands = _plan_subset(workloads.WORKLOADS["fdb-antipode"], tmp_path, "antipode_bogoliubov")
    tally = run.Tally()
    run.run_pass(cli, commands, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    def wrong(spec, i):
        return -hopfforest.Polynomial.variable(i)

    monkeypatch.setitem(hopfforest.antipode._GENERATOR_METHODS, "bogoliubov", wrong)
    run.run_pass(cli, commands, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_verify_forced_to_pass_fails_the_corruption_gate(tmp_path, monkeypatch):
    commands = _plan_subset(workloads.WORKLOADS["fdb-verify"], tmp_path, "corrupt_verify")
    tally = run.Tally()
    run.run_pass(cli, commands, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    monkeypatch.setattr(hopfforest.cli, "coassociativity_report", lambda spec, d: [])
    monkeypatch.setattr(hopfforest.cli, "convolution_check", lambda spec, d, s: [])
    monkeypatch.setattr(hopfforest.cli, "antipode_generator", lambda spec, i, m: 0)
    run.run_pass(cli, commands, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
