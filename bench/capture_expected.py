"""Rewrite bench/expected.json: sha256 of the outputs the benchmark checks
against a reference capture rather than an independent oracle.

Run it from the repository root on the commit whose outputs are the
reference (`python3 bench/capture_expected.py`).  CLI stdout is meant to
stay byte-identical across refactors, so the capture should only change
when an output format change is intended.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hopfforest  # noqa: E402
from hopfforest import cli  # noqa: E402

from workloads import (  # noqa: E402
    FDB_COMPARE_DEGREE,
    FDB_DEGREE,
    GRAFT_VERTICES,
    gen_fdb,
    invoke,
    sha256,
)


def stdout_of(argv: list[str]) -> str:
    rc, out, err = invoke(cli, argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}: {err}")
    return out


def main() -> None:
    captured: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        fdb = os.path.join(tmp, "fdb.json")
        gen_fdb(cli, FDB_DEGREE, fdb)
        captured["fdb-antipode/antipode"] = sha256(stdout_of(
            ["antipode", "--spec", fdb, "--element", str(FDB_DEGREE), "--method", "forest"]))
        captured["fdb-antipode/compare"] = sha256(stdout_of(
            ["compare", "--spec", fdb, "--max-degree", str(FDB_COMPARE_DEGREE)]))

        graft = os.path.join(tmp, "graft.json")
        with open(graft, "w", encoding="utf-8") as fh:
            fh.write(hopfforest.save_prelie(hopfforest.grafting_instance(GRAFT_VERTICES)))
        dual_text = stdout_of(["dualize", "--prelie", graft, "--max-degree", str(GRAFT_VERTICES)])
        captured["graft-dual/dualize"] = sha256(dual_text)
        dual = os.path.join(tmp, "dual.json")
        with open(dual, "w", encoding="utf-8") as fh:
            fh.write(dual_text)
        captured["graft-dual/compare"] = sha256(stdout_of(
            ["compare", "--spec", dual, "--max-degree", str(GRAFT_VERTICES)]))
        for g in json.loads(dual_text)["generators"]:
            if g["degree"] == GRAFT_VERTICES:
                captured[f"graft-dual/antipode-{g['id']}"] = sha256(stdout_of(
                    ["antipode", "--spec", dual, "--element", str(g["id"]), "--method", "forest"]))
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"sha256": captured}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
