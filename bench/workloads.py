"""The three benchmark workloads.

Each workload writes its input files once per set-up (`write_inputs`, the
timed set-up) and then describes one pass of CLI commands (`plan`), each
with the check its output must pass.  The seed picks evaluation points, the
corrupted row and the sampled generators; it never changes sizes.

Why these three:

* fdb-antipode -- few huge all-integer antipodes with thousands of realized
  trees: algebra accumulation, iterated coproducts, tree enumeration and
  linearizations.  It bypasses the coproduct_poly/verification reports.
* fdb-verify -- many small products over every monomial up to degree 8:
  coproduct_poly, coassociativity, counit and convolution.  It barely
  touches trees or linearizations.
* graft-dual -- the only preLie workload: many generators with little work
  each and rational coefficients with real denominators.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

VERIFY_PASS = (
    "structural validation: ok\n"
    "coassociativity: ok\n"
    "counit: ok\n"
    "method agreement: ok\n"
    "antipode convolution (forest): ok\n"
    "antipode convolution (dyson-salam): ok\n"
    "antipode convolution (bogoliubov): ok\n"
    "VERIFY: PASS\n"
)
PRELIE_PASS = (
    "preLie identity: ok\n"
    "product associativity: ok\n"
    "length filtration: ok\n"
    "VERIFY: PASS\n"
)
METHODS = ("forest", "dyson-salam", "bogoliubov")

FDB_DEGREE = 9  # the antipode of b9 on the degree-9 composition table
FDB_COMPARE_DEGREE = 8
VERIFY_DEGREE = 8
CORRUPT_MAX_DEGREE = 5  # corrupted rows come from sources of degree <= 5
GRAFT_VERTICES = 6
GRAFT_SAMPLES = 10  # top-degree dual generators whose antipodes are timed
ORACLE_POINTS = 3


def load_expected() -> dict[str, str]:
    """sha256 of reference outputs, captured at commit 0d42d5e by
    capture_expected.py."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["sha256"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


Check = Callable[[int, str], list[str]]


@dataclass
class Command:
    """One CLI call of a pass.  `metric` names the time bucket it adds to;
    `check` maps (exit code, stdout) to a list of problems; `on_output`
    consumes stdout after a successful check (outside the timed region).
    A `gate` command only proves that a check can fail: it is timed but
    kept out of the end-to-end metrics, because its cost depends on the
    seed."""

    metric: str
    argv: list[str]
    check: Check
    on_output: Optional[Callable[[str], None]] = None
    gate: bool = False


def exits(code: int, *checks: Check) -> Check:
    """Exit code must be `code`; only then are the output checks run."""

    def check(rc: int, out: str) -> list[str]:
        if rc != code:
            return [f"exit code {rc}, expected {code}"]
        return [p for c in checks for p in c(rc, out)]

    return check


def equals(text: str) -> Check:
    return lambda rc, out: [] if out == text else [f"unexpected output {out!r}"]


def hashes_to(expected: str) -> Check:
    return lambda rc, out: [] if sha256(out) == expected else ["output differs from the reference capture"]


def invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one command in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def gen_fdb(cli, degree: int, path: str) -> None:
    """`gen fdb` through the CLI, its stdout written to `path`."""
    rc, out, err = invoke(cli, ["gen", "fdb", "--max-degree", str(degree)])
    if rc != 0:
        raise RuntimeError(f"gen fdb --max-degree {degree} exited {rc}: {err}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out)


class FdbAntipode:
    name = "fdb-antipode"

    def write_inputs(self, pkg, cli, workdir: str, seed: int) -> None:
        gen_fdb(cli, FDB_DEGREE, os.path.join(workdir, "fdb.json"))

    def plan(self, workdir: str, seed: int) -> list[Command]:
        spec_path = os.path.join(workdir, "fdb.json")
        doc = oracles.load_doc(spec_path)
        expected = load_expected()
        rng = random.Random(seed)
        points = [
            {i: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(1, FDB_DEGREE + 1)}
            for _ in range(ORACLE_POINTS)
        ]
        values = [oracles.lagrange_antipode(FDB_DEGREE, p) for p in points]

        def lagrange(rc: int, out: str) -> list[str]:
            poly = oracles.parse_polynomial(out)
            if any(oracles.evaluate(poly, p) != v for p, v in zip(points, values)):
                return ["antipode disagrees with Lagrange inversion"]
            return []

        # All three routes must hash to the one captured output, so they are
        # byte-identical to each other as well.
        commands = [
            Command(
                f"antipode_{method.replace('-', '_')}",
                ["antipode", "--spec", spec_path, "--element", str(FDB_DEGREE), "--method", method],
                exits(0, hashes_to(expected["fdb-antipode/antipode"]), lagrange),
            )
            for method in METHODS
        ]
        commands.append(
            Command(
                "compare",
                ["compare", "--spec", spec_path, "--max-degree", str(FDB_COMPARE_DEGREE)],
                exits(
                    0,
                    lambda rc, out: oracles.check_compare(out, doc, FDB_COMPARE_DEGREE),
                    hashes_to(expected["fdb-antipode/compare"]),
                ),
            )
        )
        return commands


class FdbVerify:
    name = "fdb-verify"

    def write_inputs(self, pkg, cli, workdir: str, seed: int) -> None:
        path = os.path.join(workdir, "fdb.json")
        gen_fdb(cli, VERIFY_DEGREE, path)
        doc = oracles.load_doc(path)
        degree = {g["id"]: g["degree"] for g in doc["generators"]}
        rows = [r for r in doc["coproduct"] if degree[r["source"]] <= CORRUPT_MAX_DEGREE]
        row = random.Random(seed).choice(rows)
        row["coeff"] = str(Fraction(row["coeff"]) + 1)
        with open(os.path.join(workdir, "corrupt.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def plan(self, workdir: str, seed: int) -> list[Command]:
        def caught(rc: int, out: str) -> list[str]:
            lines = out.splitlines()
            if lines[:1] != ["structural validation: ok"] or lines[-1:] != ["VERIFY: FAIL"]:
                return [f"corrupted table not reported as failing: {out!r}"]
            return []

        return [
            Command(
                "verify",
                ["verify", "--spec", os.path.join(workdir, "fdb.json"),
                 "--max-degree", str(VERIFY_DEGREE)],
                exits(0, equals(VERIFY_PASS)),
            ),
            Command(
                "corrupt_verify",
                ["verify", "--spec", os.path.join(workdir, "corrupt.json"),
                 "--max-degree", str(CORRUPT_MAX_DEGREE)],
                exits(1, caught),
                gate=True,
            ),
        ]


class GraftDual:
    name = "graft-dual"

    def write_inputs(self, pkg, cli, workdir: str, seed: int) -> None:
        text = pkg.save_prelie(pkg.grafting_instance(GRAFT_VERTICES))
        with open(os.path.join(workdir, "graft.json"), "w", encoding="utf-8") as fh:
            fh.write(text)

    def plan(self, workdir: str, seed: int) -> list[Command]:
        prelie_path = os.path.join(workdir, "graft.json")
        dual_path = os.path.join(workdir, "dual.json")
        expected = load_expected()
        top = sorted(
            int(key.rsplit("-", 1)[1]) for key in expected if key.startswith("graft-dual/antipode-")
        )
        sample = sorted(random.Random(seed).sample(top, GRAFT_SAMPLES))
        dual_doc: dict = {}

        def write_dual(out: str) -> None:
            with open(dual_path, "w", encoding="utf-8") as fh:
                fh.write(out)
            dual_doc.clear()
            dual_doc.update(json.loads(out))

        commands = [
            Command("prelie_verify", ["prelie-verify", "--prelie", prelie_path],
                    exits(0, equals(PRELIE_PASS))),
            Command("dualize",
                    ["dualize", "--prelie", prelie_path, "--max-degree", str(GRAFT_VERTICES)],
                    exits(0, hashes_to(expected["graft-dual/dualize"])), write_dual),
            Command("verify",
                    ["verify", "--spec", dual_path, "--max-degree", str(GRAFT_VERTICES)],
                    exits(0, equals(VERIFY_PASS))),
            Command("compare",
                    ["compare", "--spec", dual_path, "--max-degree", str(GRAFT_VERTICES)],
                    exits(
                        0,
                        lambda rc, out: oracles.check_compare(out, dual_doc, GRAFT_VERTICES),
                        hashes_to(expected["graft-dual/compare"]),
                    )),
        ]
        for element in sample:
            want = expected[f"graft-dual/antipode-{element}"]
            for method in METHODS:
                commands.append(
                    Command(
                        f"antipode_{method.replace('-', '_')}",
                        ["antipode", "--spec", dual_path, "--element", str(element),
                         "--method", method],
                        exits(0, hashes_to(want)),
                    )
                )
        return commands


WORKLOADS = {w.name: w for w in (FdbAntipode(), FdbVerify(), GraftDual())}
