"""Session-shared fixtures: the worked composition-algebra table, the free
grafting preLie instance, its dualized coproduct table, and their
single-coefficient corruptions; a per-test record of the packed frames
built; a switch that makes free-module arithmetic raise; and a time bound
on every test."""

import signal

import pytest

from hopfforest import coproduct
from hopfforest.algebra import Monomial, Polynomial, Tensor
from hopfforest.hopfspec import (
    CoproductEntry,
    CoproductSpec,
    faa_di_bruno_spec,
    save_spec,
)
from hopfforest.prelie import dualize, grafting_instance, save_prelie


TEST_SECONDS = 60  # the slowest test takes about 2 s


@pytest.fixture(autouse=True)
def time_bound():
    """Where SIGALRM exists, a test still running TEST_SECONDS after it
    starts fails under its own name instead of hanging the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def fdb6():
    return faa_di_bruno_spec(6)


@pytest.fixture(scope="session")
def graft4():
    return grafting_instance(4)


@pytest.fixture(scope="session")
def dual4(graft4):
    return dualize(graft4, 4)


@pytest.fixture(scope="session")
def fdb6_file(fdb6, tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "fdb6.json"
    path.write_text(save_spec(fdb6))
    return str(path)


@pytest.fixture(scope="session")
def graft4_file(graft4, tmp_path_factory):
    path = tmp_path_factory.mktemp("prelie") / "graft4.json"
    path.write_text(save_prelie(graft4))
    return str(path)


@pytest.fixture(
    scope="session",
    params=[
        ("fdb-6", lambda: faa_di_bruno_spec(6), 6),
        ("grafting-5-dual", lambda: dualize(grafting_instance(5), 5), 5),
    ],
    ids=lambda param: param[0],
)
def corrupted(request):
    """(name, clean table, its top degree, every copy of the table with one
    row coefficient raised by 1), shared so the copies' memos fill once."""
    name, make, degree = request.param
    base = make()
    tables = []
    for k, e in enumerate(base.entries):
        entries = list(base.entries)
        entries[k] = CoproductEntry(e.source, e.left, e.right, e.coeff + 1)
        tables.append(CoproductSpec("corrupt", base.generators.values(), entries))
    return name, base, degree, tables


@pytest.fixture
def frames_built(monkeypatch):
    """The starts of every frame built, in order."""
    built = []
    init = coproduct._Frame.__init__

    def counted(self, spec, starts, degree):
        built.append(starts)
        init(self, spec, starts, degree)

    monkeypatch.setattr(coproduct._Frame, "__init__", counted)
    return built


@pytest.fixture
def free_module_refused(monkeypatch):
    """A call that, from then on in the test, makes every Polynomial and
    Tensor sum, product, difference, negation and scalar multiple,
    `Tensor.multiplied_out` and every monomial product raise."""

    def refused(name):
        def call(*args):
            raise AssertionError(f"{name} called")

        return call

    def refuse():
        for cls in (Polynomial, Tensor):
            for name in ("__add__", "__mul__", "__sub__", "__neg__", "__rmul__"):
                monkeypatch.setattr(cls, name, refused(f"{cls.__name__}.{name}"))
        monkeypatch.setattr(Tensor, "multiplied_out", refused("Tensor.multiplied_out"))
        monkeypatch.setattr(Monomial, "__mul__", refused("Monomial.__mul__"))

    return refuse
