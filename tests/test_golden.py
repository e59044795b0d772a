"""Golden stdout: sha256 digests of whole CLI outputs on the degree-8
composition table and on the degree-5 grafting dual, including the tree
commands, and of `prelie-verify` and `dualize` on every single-constant
corruption of the grafting-5 table, failure text included.  Any change to
what a command prints, down to one byte, fails here; refactors must keep
them."""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from hopfforest.algebra import Polynomial
from hopfforest.cli import run
from hopfforest.prelie import PreLieSpec, grafting_instance, save_prelie

METHODS = ("forest", "dyson-salam", "bogoliubov")
FDB_DEGREE = 8
DUAL_DEGREE = 5
DUAL_ELEMENT = 17  # the last degree-5 generator of the grafting-5 dual
# the elements of the `trees` and `linearizations --k 3` runs, per table
TREE_ELEMENTS = {"fdb": (FDB_DEGREE, 6), "dual": (DUAL_ELEMENT,)}


def _stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def _commands(spec_file: str, degree: int, element: int) -> dict[str, tuple]:
    common = ("--spec", spec_file)
    out = {
        "verify": ("verify", *common, "--max-degree", str(degree)),
        "compare": ("compare", *common, "--max-degree", str(degree)),
        "coproduct": (
            "coproduct", *common, "--element", str(element), "--iterate", "4",
        ),
    }
    for method in METHODS:
        out[f"antipode-{method}"] = (
            "antipode", *common, "--element", str(element),
            "--method", method, "--format", "json",
        )
    return out


def golden_outputs(tmp_dir) -> dict[str, str]:
    """stdout of every guarded command, keyed by a stable name."""
    outputs: dict[str, str] = {}
    fdb = outputs["fdb:gen"] = _stdout("gen", "fdb", "--max-degree", str(FDB_DEGREE))
    fdb_file = tmp_dir / "fdb8.json"
    fdb_file.write_text(fdb, encoding="utf-8")
    graft_file = tmp_dir / "graft5.json"
    graft_file.write_text(save_prelie(grafting_instance(DUAL_DEGREE)), encoding="utf-8")
    dual = outputs["dual:dualize"] = _stdout(
        "dualize", "--prelie", str(graft_file), "--max-degree", str(DUAL_DEGREE)
    )
    dual_file = tmp_dir / "dual5.json"
    dual_file.write_text(dual, encoding="utf-8")
    for prefix, path, degree, element in (
        ("fdb", fdb_file, FDB_DEGREE, FDB_DEGREE),
        ("dual", dual_file, DUAL_DEGREE, DUAL_ELEMENT),
    ):
        for name, argv in _commands(str(path), degree, element).items():
            outputs[f"{prefix}:{name}"] = _stdout(*argv)
        for tree_element in TREE_ELEMENTS[prefix]:
            common = ("--spec", str(path), "--element", str(tree_element))
            outputs[f"{prefix}:trees-{tree_element}"] = _stdout("trees", *common)
            outputs[f"{prefix}:linearizations-{tree_element}"] = _stdout(
                "linearizations", *common, "--k", "3"
            )
    return outputs


# Captured at commit 01cbc5a, before the plumbing refactor.
GOLDEN_SHA256 = {
    "dual:antipode-bogoliubov": "fc90ab15a5b4cf32511ca3d5072ca1af260998dd3e7b6347e408ec549ddee990",
    "dual:antipode-dyson-salam": "13de2fb48f9f8e644f65b30520c35e705951f35972278fb012084a47638a5712",
    "dual:antipode-forest": "680af57c6c3bd46cf8a5ffc01f3358ad0aab1cba08d7033aa48622e0dfb6abe8",
    "dual:compare": "d0b1c3f8f971c951017c36929d8b5f92ba88ef5120bbecf2442af3e448f9893e",
    "dual:coproduct": "1f65a7cb93432e7c9e360b2dba3040cffe5cfa79aef1855f7c6ef7b229b1b702",
    "dual:dualize": "9081d9b19f8f6b2c18b877cd9f5ab5609eb67ae4f0946ae7ad8de8044537b447",
    "dual:verify": "874dde543259208759f69fee7c6eefdc4cf58b0f996d90d63b96f55ac6342e1e",
    "fdb:antipode-bogoliubov": "2c88bc35afc0b5f3c1f02b299c8e69a3c9bfe59c2d062ec4cd85f38631221355",
    "fdb:antipode-dyson-salam": "aaa9333a2817dc295b15c207af779fee57f92ef6ddbbbbb29568bc20f6640bea",
    "fdb:antipode-forest": "847b910631a2b2900f74e473502b71586deb1a9747ef42b5db13808e1ee05785",
    "fdb:compare": "7a8d4be7826ca4c878bc200b783113b999afe04cb0318da0893fcf2e81517f52",
    "fdb:coproduct": "02a5902f2132c02237a8b5e85262505a34789f385a9cbdd32f21acfac954fce0",
    "fdb:gen": "7f6ac49e2fd4c797afedcd23c831c4c1029717adda5ce18a180c5270977474d9",
    "fdb:verify": "874dde543259208759f69fee7c6eefdc4cf58b0f996d90d63b96f55ac6342e1e",
    # Captured at commit f9a5845, before the tree walks were deduplicated.
    "dual:linearizations-17": "57f4f5361b7258a68c30062e5f02bb1dc40229ff4570a688d32528387c4aff32",
    "dual:trees-17": "4fc2ea945f4de5b845e482e67c237bd1f7c5b01d86ff504ffbf0dade00fb8b61",
    "fdb:linearizations-6": "fc557f6b0edbef3c61839b27d0d1c545994870e78a9d082af4da00760453983e",
    "fdb:linearizations-8": "ed15d0a27fe0263b5efd22ffd07557cba2175d6a86154e1377754ac29d27ee08",
    "fdb:trees-6": "bc2437d7e3c5716d6153a01fb5f2afe0820e50da6b32fa01affcbf19c831d796",
    "fdb:trees-8": "65ab336a066063ce782b763b6bfc82690b594b4098c453e8897d139ae31a9170",
}


def test_compare_to_degree_twelve(tmp_path):
    # 68,954 realized trees under b12, counted in closed form.
    fdb12 = tmp_path / "fdb12.json"
    fdb12.write_text(_stdout("gen", "fdb", "--max-degree", "12"), encoding="utf-8")
    out = _stdout("compare", "--spec", str(fdb12), "--max-degree", "12")
    # Captured at commit 14d505a, before the vertex-count histogram was dropped.
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "8014537727b1368d850d8b5d7f8f22e223c505ed6d44278fa6accedf8b786761"
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_stdout_is_byte_identical(outputs, name):
    digest = hashlib.sha256(outputs[name].encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[name]


def test_every_output_is_guarded(outputs):
    assert sorted(outputs) == sorted(GOLDEN_SHA256)


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def corrupted_graft5_records(tmp_dir) -> dict[str, str]:
    """For every copy of the grafting-5 table with one structure constant
    raised by 1 or by 1/3: the exit code, stdout and stderr of
    `prelie-verify` and of `dualize --max-degree 5`, as one digest (the
    first 16 hex digits of its sha256), keyed by the constant raised."""
    base = grafting_instance(DUAL_DEGREE)
    records: dict[str, str] = {}
    for step in (Fraction(1), Fraction(1, 3)):
        for (i, j), value in sorted(base.products.items()):
            for m, _ in value.terms():
                products = dict(base.products)
                products[i, j] = value + Polynomial.single(m, step)
                spec = PreLieSpec("corrupt", base.basis.values(), products, base.truncation)
                path = tmp_dir / "corrupt.json"
                path.write_text(save_prelie(spec), encoding="utf-8")
                runs = (
                    _run("prelie-verify", "--prelie", str(path)),
                    _run("dualize", "--prelie", str(path), "--max-degree", str(DUAL_DEGREE)),
                )
                text = "\0".join(f"{code}\0{out}\0{err}" for code, out, err in runs)
                key = f"+{step} ({i}, {j}) {m}"
                records[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return records


# Captured at commit 3c60594, before the preLie side ran on packed keys.
CORRUPTED_GRAFT5_SHA256 = {
    "+1 (1, 1) b2": "5427b4bd416c4bab",
    "+1 (1, 2) b4": "e7dabb55049877de",
    "+1 (1, 3) b7": "883099ed015cdbbc",
    "+1 (1, 4) b8": "9f5ee99c3d93ca67",
    "+1 (1, 5) b14": "d518a83707447553",
    "+1 (1, 6) b15": "8715a098ed3f3b78",
    "+1 (1, 7) b16": "4b38b532035515d3",
    "+1 (1, 8) b17": "acb92748a7bfd8df",
    "+1 (2, 1) b3": "e7dabb55049877de",
    "+1 (2, 1) b4": "e7dabb55049877de",
    "+1 (2, 2) b6": "e7dabb55049877de",
    "+1 (2, 2) b8": "e7dabb55049877de",
    "+1 (2, 3) b11": "042a12ae739cfe9a",
    "+1 (2, 3) b16": "042a12ae739cfe9a",
    "+1 (2, 4) b12": "9f5ee99c3d93ca67",
    "+1 (2, 4) b17": "9f5ee99c3d93ca67",
    "+1 (3, 1) b5": "d518a83707447553",
    "+1 (3, 1) b6": "d518a83707447553",
    "+1 (3, 2) b10": "c11b9e59724d6c13",
    "+1 (3, 2) b12": "c11b9e59724d6c13",
    "+1 (4, 1) b6": "482dc6d0fe65c31b",
    "+1 (4, 1) b7": "482dc6d0fe65c31b",
    "+1 (4, 1) b8": "482dc6d0fe65c31b",
    "+1 (4, 2) b13": "c11b9e59724d6c13",
    "+1 (4, 2) b15": "c11b9e59724d6c13",
    "+1 (4, 2) b17": "c11b9e59724d6c13",
    "+1 (5, 1) b9": "2b086ae777a55d4f",
    "+1 (5, 1) b10": "7cfaea364661a899",
    "+1 (6, 1) b10": "c11b9e59724d6c13",
    "+1 (6, 1) b11": "c11b9e59724d6c13",
    "+1 (6, 1) b12": "c11b9e59724d6c13",
    "+1 (6, 1) b13": "c11b9e59724d6c13",
    "+1 (7, 1) b11": "d518a83707447553",
    "+1 (7, 1) b14": "d518a83707447553",
    "+1 (7, 1) b15": "d518a83707447553",
    "+1 (8, 1) b12": "b743eff4d393a6ab",
    "+1 (8, 1) b15": "b743eff4d393a6ab",
    "+1 (8, 1) b16": "b743eff4d393a6ab",
    "+1 (8, 1) b17": "b743eff4d393a6ab",
    "+1/3 (1, 1) b2": "5427b4bd416c4bab",
    "+1/3 (1, 2) b4": "e7dabb55049877de",
    "+1/3 (1, 3) b7": "883099ed015cdbbc",
    "+1/3 (1, 4) b8": "9f5ee99c3d93ca67",
    "+1/3 (1, 5) b14": "d518a83707447553",
    "+1/3 (1, 6) b15": "8715a098ed3f3b78",
    "+1/3 (1, 7) b16": "4b38b532035515d3",
    "+1/3 (1, 8) b17": "12dcea53c065a72b",
    "+1/3 (2, 1) b3": "e7dabb55049877de",
    "+1/3 (2, 1) b4": "e7dabb55049877de",
    "+1/3 (2, 2) b6": "e7dabb55049877de",
    "+1/3 (2, 2) b8": "e7dabb55049877de",
    "+1/3 (2, 3) b11": "042a12ae739cfe9a",
    "+1/3 (2, 3) b16": "042a12ae739cfe9a",
    "+1/3 (2, 4) b12": "9f5ee99c3d93ca67",
    "+1/3 (2, 4) b17": "9f5ee99c3d93ca67",
    "+1/3 (3, 1) b5": "d518a83707447553",
    "+1/3 (3, 1) b6": "d518a83707447553",
    "+1/3 (3, 2) b10": "c11b9e59724d6c13",
    "+1/3 (3, 2) b12": "c11b9e59724d6c13",
    "+1/3 (4, 1) b6": "482dc6d0fe65c31b",
    "+1/3 (4, 1) b7": "482dc6d0fe65c31b",
    "+1/3 (4, 1) b8": "482dc6d0fe65c31b",
    "+1/3 (4, 2) b13": "c11b9e59724d6c13",
    "+1/3 (4, 2) b15": "c11b9e59724d6c13",
    "+1/3 (4, 2) b17": "c11b9e59724d6c13",
    "+1/3 (5, 1) b9": "60806908dcb329b6",
    "+1/3 (5, 1) b10": "7800f26977583e81",
    "+1/3 (6, 1) b10": "c11b9e59724d6c13",
    "+1/3 (6, 1) b11": "c11b9e59724d6c13",
    "+1/3 (6, 1) b12": "c11b9e59724d6c13",
    "+1/3 (6, 1) b13": "c11b9e59724d6c13",
    "+1/3 (7, 1) b11": "d518a83707447553",
    "+1/3 (7, 1) b14": "d518a83707447553",
    "+1/3 (7, 1) b15": "d518a83707447553",
    "+1/3 (8, 1) b12": "b743eff4d393a6ab",
    "+1/3 (8, 1) b15": "b743eff4d393a6ab",
    "+1/3 (8, 1) b16": "b743eff4d393a6ab",
    "+1/3 (8, 1) b17": "b743eff4d393a6ab",
}


def test_prelie_failure_text_is_byte_identical(tmp_path):
    assert corrupted_graft5_records(tmp_path) == CORRUPTED_GRAFT5_SHA256
