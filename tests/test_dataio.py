import ast
import contextvars
import io
import math
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pai
from pai import InputError, PassConfig, dataio, gaussian_from_params, pai_interval, predict, sample_statistic_null


def test_write_json_bytes_are_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "doc.json"
    dataio.write_json(path, {"b": [1.5, -0.0, 1e-300], "a": {"z": True, "y": None}})
    assert path.read_bytes() == b'{"a": {"y": null, "z": true}, "b": [1.5, -0.0, 1e-300]}\n'


def test_write_json_of_an_unserialisable_payload_creates_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        dataio.write_json(path, {"schema": "pai-report/1", "value": object()})
    assert not path.exists()


# Finite float64 values from their bit patterns, plus the edge values named
# outright: signed zeros, the smallest subnormal and the largest finite values.
FINITE_BITS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
    FINITE_BITS.filter(np.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(matrix=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=FINITE))
def test_written_matrices_read_back_bit_for_bit(matrix):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "m.csv"
        dataio.write_matrix(path, matrix)
        back = dataio.read_matrix(path)
    assert back.dtype == np.float64 and back.shape == matrix.shape
    assert back.view(np.uint64).tolist() == matrix.view(np.uint64).tolist()


# (file text, header, the matrix or the InputError message after "<path>: ")
READ_CASES = [
    ("x,y\n1,2\n", True, [[1.0, 2.0]]),
    ("1,2\n\n3,4\n\n", False, [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n \t \n3,4\n", False, [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r\n3,4\r\n", False, [[1.0, 2.0], [3.0, 4.0]]),
    (" 1.5 ,2\n", False, [[1.5, 2.0]]),
    ("1_0,2\n", False, [[10.0, 2.0]]),
    ("١,2\n", False, [[1.0, 2.0]]),
    ("-0,5e-324\n", False, [[-0.0, 5e-324]]),
    ("1,2\nnan,4\n", False, "line 2, column 1: non-finite value 'nan'"),
    ("1,inf\n", False, "line 1, column 2: non-finite value 'inf'"),
    ("1,-inf\n", False, "line 1, column 2: non-finite value '-inf'"),
    ("1e400,2\n", False, "line 1, column 1: non-finite value '1e400'"),
    ("1,,2\n", False, "line 1, column 2: cannot parse ''"),
    ("1,2,\n", False, "line 1, column 3: cannot parse ''"),
    ("1,2\n3\n", False, "line 2 has 1 fields, expected 2"),
    ("1,2#x\n", False, "line 1, column 2: cannot parse '2#x'"),
    ("#,2\n", False, "line 1, column 1: cannot parse '#'"),
    ('"1",2\n', False, "line 1, column 1: cannot parse '\"1\"'"),
    ("x,y\n1,2\n3,zzz\n", True, "line 3, column 2: cannot parse 'zzz'"),
    ("", False, "no data rows"),
    ("x,y\n\n", True, "no data rows"),
]


@pytest.mark.parametrize("text, header, expected", READ_CASES)
def test_read_matrix_agrees_with_the_per_field_loop(tmp_path, text, header, expected):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    lines = text.splitlines()
    if isinstance(expected, str):
        with pytest.raises(InputError) as caught:
            dataio.read_matrix(path, header)
        assert str(caught.value) == f"{path}: {expected}"
        with pytest.raises(InputError) as loop:
            dataio._parse_fields(path, lines, int(header))
        assert str(loop.value) == str(caught.value)
    else:
        matrix = dataio.read_matrix(path, header)
        loop = dataio._parse_fields(path, lines, int(header))
        assert matrix.dtype == np.float64 and matrix.shape == loop.shape
        assert matrix.view(np.uint64).tolist() == loop.view(np.uint64).tolist()
        assert matrix.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


def _reference_csv(matrix):
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in matrix.reshape(len(matrix), -1))


@pytest.mark.parametrize(
    "shape", [(dataio._CHUNK_VALUES // 8 + 1, 8), (dataio._CHUNK_VALUES + 1,)], ids=["matrix", "vector"]
)
def test_write_matrix_bytes_match_per_value_formatting(tmp_path, shape):
    matrix = np.random.default_rng(3).standard_normal(shape) * 10.0 ** np.random.default_rng(4).integers(-320, 307, shape)
    matrix.flat[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    path = tmp_path / "m.csv"
    dataio.write_matrix(path, matrix)
    assert path.read_bytes() == _reference_csv(matrix).encode("ascii")


def test_the_size_budget_is_checked_before_anything_is_allocated():
    side = math.isqrt(dataio._MAX_VALUES)
    assert side == 16384
    tracemalloc.start()
    try:
        dataio.check_size((side, side))
        for refuse in (dataio.check_size, dataio.allocate):
            with pytest.raises(MemoryError, match=r"^cannot allocate 16385 x 16384 float64 values$"):
                refuse((side + 1, side))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_one_budget_sizes_every_chunked_loop(monkeypatch, tmp_path):
    # One patch of 24 values makes chunks of two 12-value items in each loop:
    # the engine's replicates, the interval points, the k-NN queries and the
    # rows of a CSV write.
    monkeypatch.setattr(dataio, "_CHUNK_VALUES", 24)
    engine, intervals, knn, writes = [], [], [], []
    sample, chunk_loop = predict.conditional_sample, predict._knn_chunks

    def statistic(chunk):
        engine.append(len(chunk))
        return np.zeros(len(chunk))

    def recording_sample(model, X, *args):
        intervals.append(len(X))
        return sample(model, X, *args)

    def recording_chunk_loop(queries, table, k, idx, chunks):
        knn.extend((chunk.start, chunk.stop) for chunk in chunks)
        chunk_loop(queries, table, k, idx, chunks)

    class RecordingFile(io.StringIO):
        def write(self, text):
            writes.append(text.count("\n"))
            return super().write(text)

    monkeypatch.setattr(predict, "conditional_sample", recording_sample)
    monkeypatch.setattr(predict, "_knn_chunks", recording_chunk_loop)
    monkeypatch.setattr(dataio, "open", lambda *args, **kwargs: RecordingFile(), raising=False)
    sample_statistic_null(gaussian_from_params(np.zeros(1), cov=np.eye(1)), 12, 5, statistic, PassConfig())
    pai_interval(gaussian_from_params(np.zeros(2), cov=np.eye(2)), np.zeros((5, 1)), 0.5, 12, PassConfig())
    predict._knn_indices(np.zeros((5, 2)), np.zeros((12, 2)), 3)
    dataio.write_matrix(tmp_path / "m.csv", np.zeros((5, 12)))
    assert engine == intervals == writes == [2, 2, 1]
    assert sorted(knn) == [(0, 2), (2, 4), (4, 6)]


def test_write_matrix_memory_does_not_grow_with_the_matrix(tmp_path):
    # formatting the whole (200000, 8) matrix at once would hold about 50 MB
    # of Python floats; one block of 2**17 values holds a few MB
    matrix = np.random.default_rng(5).standard_normal((200_000, 8))
    tracemalloc.start()
    try:
        dataio.write_matrix(tmp_path / "big.csv", matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_as_matrix_is_the_one_matrix_rule():
    assert dataio.as_matrix([1, 2], "x").tolist() == [[1.0], [2.0]]
    assert dataio.as_matrix(np.zeros((2, 3, 4)), "x", 4, stack=True).shape == (2, 3, 4)
    with pytest.raises(InputError, match="x must be a 2-D matrix$"):
        dataio.as_matrix(np.zeros((2, 3, 4)), "x")
    with pytest.raises(InputError, match="x must be a 2-D matrix or a stack of them"):
        dataio.as_matrix(1.0, "x", stack=True)
    with pytest.raises(InputError, match=r"x entry \(1, 0\) is not finite: nan"):
        dataio.as_matrix([[1.0, 2.0], [np.nan, -np.inf]], "x")
    with pytest.raises(InputError, match="x has 2 columns, expected 3"):
        dataio.as_matrix(np.zeros((5, 2)), "x", 3)


def test_numbers_is_the_one_number_rule():
    assert dataio.numbers([[1, 2.5], [-0.0, 1e308]], (2, None)).tolist() == [[1.0, 2.5], [-0.0, 1e308]]
    assert dataio.number(3) == 3.0 and type(dataio.number(3)) is float
    refused = [
        ([True, 0.5], (2,)), ([1, False], (2,)), (["1", 0.5], (2,)), ([None, 0.5], (2,)),
        ([10**400, 0.5], (2,)), ([float("nan"), 0.5], (2,)), ([[1.0, 2.0], [3.0]], (2, 2)),
        ([1.0, 2.0], (2, 2)), ([[1.0], [2.0]], (2,)), ([1.0, 2.0, 3.0], (2,)), (True, ()), ("1", ()),
        (np.True_, ()), ([np.bool_(False), 0.5], (2,)),
        # arrays of another rank, of booleans or complex numbers, or with a non-finite entry
        (np.array(3.0), ()), (np.ones(2), ()), (np.ones((2, 2)), (None,)), (np.array([True, False]), (2,)),
        (np.array([1j, 0.5]), (2,)), (np.array([np.inf, 0.5]), (2,)),
    ]
    for raw, shape in refused:
        with pytest.raises((TypeError, ValueError, OverflowError)):
            dataio.numbers(raw, shape)
    # numpy scalars are numbers too, and a scalar is read as the Python number it equals
    assert dataio.numbers([np.int64(1), np.float32(2.5)], (2,)).tolist() == [1.0, 2.5]
    assert dataio.numbers(np.array([[1, 2]], dtype=np.uint8), (1, 2)).tolist() == [[1.0, 2.0]]
    assert [(value, type(value)) for value in map(dataio.scalar, (3, np.int64(3), np.float64(0.5)))] == [
        (3, int), (3, int), (0.5, float),
    ]
    assert dataio.integer(7) == 7 and type(dataio.integer(np.uint64(7))) is int
    for raw in (True, 7.0, -1, 10**400, "7", np.True_, np.float64(7.0), np.int64(-1)):
        with pytest.raises((TypeError, ValueError, OverflowError)):
            dataio.integer(raw)


def test_read_field_names_the_document_and_the_path():
    doc = {"grids": [{"xs": [0.0, 1.0]}, {"xs": [0.0, True]}]}
    assert dataio.read_field(doc, "model", len, "grids", 0, "xs") == 2
    with pytest.raises(InputError, match=r"^model field 'grids\[1\]\.xs': expected numbers, found \['bool'\]$"):
        dataio.read_field(doc, "model", lambda raw: dataio.numbers(raw, (None,)), "grids", 1, "xs")
    for path in (("grids", 2, "xs"), ("grids", 0, "ps"), ("grids", "xs"), ("grids", 0, "xs", "a")):
        with pytest.raises(InputError, match="^model document lacks field "):
            dataio.read_field(doc, "model", len, *path)


_CALLER_VALUE = contextvars.ContextVar("caller_value", default="unset")


def test_two_threads_runs_one_call_on_a_worker_in_the_callers_context():
    def seen(tag):
        return tag, threading.current_thread() is threading.main_thread(), _CALLER_VALUE.get(), np.geterr()["divide"]

    before = threading.active_count()
    token = _CALLER_VALUE.set("set by the caller")
    try:
        with np.errstate(divide="raise"):
            on_worker, on_caller = dataio.two_threads(seen, ("worker",), ("caller",))
    finally:
        _CALLER_VALUE.reset(token)
    assert on_worker == ("worker", False, "set by the caller", "raise")
    assert on_caller == ("caller", True, "set by the caller", "raise")
    assert threading.active_count() == before


def test_the_calling_threads_error_wins_once_the_worker_has_finished():
    caller_failing, worker_done = threading.Event(), threading.Event()

    def call(side):
        if side == "caller":
            caller_failing.set()
            raise ValueError("caller failed")
        # Still running when the caller fails: its error waits for this call to end.
        caller_failing.wait(10.0)
        time.sleep(0.1)
        worker_done.set()
        raise FloatingPointError("worker failed")

    before = threading.active_count()
    with pytest.raises(ValueError, match="caller failed"):
        dataio.two_threads(call, ("worker",), ("caller",))
    assert worker_done.is_set()
    assert threading.active_count() == before


def test_a_worker_error_propagates_when_the_caller_succeeds():
    def call(side):
        if side == "worker":
            raise FloatingPointError("worker failed")
        return side

    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker failed"):
        dataio.two_threads(call, ("worker",), ("caller",))
    assert threading.active_count() == before


def _thread_sites():
    """``(module, function)`` of each import of a thread module, and of each call of ``two_threads``."""
    imports, calls = set(), set()
    for path in sorted(Path(pai.__file__).parent.glob("*.py")):

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Import):
                    names = [alias.name for alias in child.names]
                elif isinstance(child, ast.ImportFrom):
                    names = [child.module or ""] + [f"{child.module}.{alias.name}" for alias in child.names]
                else:
                    names = []
                if any(name.split(".")[0] in ("concurrent", "contextvars", "threading") for name in names):
                    imports.add((path.stem, function))
                if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == (
                    "two_threads"
                ):
                    calls.add((path.stem, function))
                visit(child, function)

        visit(ast.parse(path.read_text(), filename=str(path)), None)
    return imports, calls


def test_one_function_of_the_package_leaves_the_calling_thread():
    # A thread module imported anywhere else would be a second thread site
    # with its own contract; new work off the calling thread goes through
    # dataio.two_threads.
    imports, calls = _thread_sites()
    assert imports == {("dataio", "two_threads")}
    assert calls == {
        ("assignment", "rank_cost_matrix"),
        ("inference", "_risk_difference_statistic"),
        ("predict", "_knn_indices"),
    }
