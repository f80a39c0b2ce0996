"""Binary container: the writer's exact bytes; a malformed file raises a FileFormatError, nothing else."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclnn import container
from mclnn.container import MAX_HEADER_LEVELS
from mclnn.errors import FileFormatError, HeaderMismatchError, TruncatedFileError, ValidationError
from mclnn.features import FeatureMatrix, save_features

from conftest import accept_any, nested_lists, rewrite_header_by_hand

MAGIC, VERSION = b"TEST", 1


def declared(header):
    return [tuple(shape) for shape in header["shapes"]]


def test_round_trip():
    arrays = [np.arange(6.0).reshape(2, 3), np.array(7.0), np.zeros((0, 4))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, VERSION, {"shapes": [[2, 3], [], [0, 4]]}, arrays, accept_any)
        header, got = container.read(path, MAGIC, VERSION, declared, accept_any)
    assert header == {"shapes": [[2, 3], [], [0, 4]]}
    for want, array in zip(arrays, got):
        assert array.shape == want.shape and array.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [[-1, -2], [-1, 3], [2, -3]])
def test_negative_dimension_is_header_mismatch(shape):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, VERSION, {"shapes": [shape]}, [np.zeros(2)], accept_any)
        with pytest.raises(HeaderMismatchError, match="negative dimension"):
            container.read(path, MAGIC, VERSION, declared, accept_any)


# a declared dimension: small integers, or JSON values that are not integers
DIMENSIONS = st.one_of(
    st.integers(-3, 4),
    st.booleans(),
    st.floats(-2.0, 4.0),
    st.text(max_size=2),
)


@pytest.mark.parametrize("shape", [[5, 8.9, 6.2], [2.0, 3], [True, 2], ["2", 3], [None]])
def test_non_integer_dimension_is_header_mismatch(shape):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, VERSION, {"shapes": [shape]}, [np.zeros(48)], accept_any)
        with pytest.raises(HeaderMismatchError, match="non-integer dimension"):
            container.read(path, MAGIC, VERSION, declared, accept_any)


@settings(derandomize=True, max_examples=300)
@given(
    shapes=st.lists(st.lists(DIMENSIONS, max_size=3), max_size=3),
    exact=st.booleans(),
    extra=st.integers(0, 30),
)
def test_declared_shapes_load_or_raise_file_format_error(shapes, exact, extra):
    """Payload sized to the declared shapes (when that size is valid) or arbitrary.

    A file loads only if every declared dimension is a non-negative int.
    """
    integral = all(type(d) is int for shape in shapes for d in shape)
    needed = sum(int(np.prod(shape)) for shape in shapes) if integral else -1
    count = needed if exact and needed >= 0 else extra
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, VERSION, {"shapes": shapes}, [np.arange(float(count))],
                        accept_any)
        try:
            _, arrays = container.read(path, MAGIC, VERSION, declared, accept_any)
        except FileFormatError:
            return
    assert integral
    assert [array.shape for array in arrays] == [tuple(shape) for shape in shapes]


def test_read_returns_writeable_arrays_that_own_their_memory():
    arrays = [np.arange(6.0).reshape(2, 3), np.array(7.0)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, VERSION, {"shapes": [[2, 3], []]}, arrays, accept_any)
        _, got = container.read(path, MAGIC, VERSION, declared, accept_any)
    for array in got:
        assert array.flags.writeable and array.flags.owndata and array.base is None
        assert array.dtype == np.float64


@pytest.mark.parametrize("cut, error, message", [
    (-1, TruncatedFileError, "payload ends early"),
    (8, HeaderMismatchError, "8 trailing bytes"),
])
def test_read_header_checks_the_declared_size_as_read_does(cut, error, message):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, VERSION, {"shapes": [[2, 3]]}, [np.zeros((2, 3))], accept_any)
        header = container.read_header(path, MAGIC, VERSION, declared, accept_any)
        assert header == {"shapes": [[2, 3]]}
        blob = path.read_bytes()
        path.write_bytes(blob[:cut] if cut < 0 else blob + bytes(cut))
        for reader in (container.read, container.read_header):
            with pytest.raises(error, match=message):
                reader(path, MAGIC, VERSION, declared, accept_any)


_VALUES = np.arange(24.0).reshape(4, 6) / 7.0


@pytest.mark.parametrize("array", [
    np.asfortranarray(_VALUES),
    _VALUES[::2, 1::2],
    _VALUES.astype(np.float32),
    _VALUES.astype(">f8"),
    np.array(7.5),
    np.zeros((0, 4)),
], ids=["f-order", "strided", "float32", "big-endian", "0-d", "empty"])
def test_write_stores_the_c_ordered_little_endian_float64_bytes(array):
    expected = np.ascontiguousarray(array, dtype="<f8").tobytes()
    header = {"shapes": [list(array.shape)]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, VERSION, header, [array], accept_any)
        blob = path.read_bytes()
        _, (got,) = container.read(path, MAGIC, VERSION, declared, accept_any)
    assert blob.endswith(expected) and len(blob) > len(expected)
    assert got.shape == array.shape and got.tobytes() == expected


def test_write_lays_out_magic_version_header_and_payload():
    header = {"shapes": [[2], []], "name": "x"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        container.write(path, MAGIC, 3, header, [np.array([1.0, -2.5]), np.array(0.25)], accept_any)
        blob = path.read_bytes()
    header_json = b'{"name": "x", "shapes": [[2], []]}'
    assert blob == (
        b"TEST" + (3).to_bytes(4, "little") + len(header_json).to_bytes(8, "little")
        + header_json
        + bytes.fromhex("000000000000f03f" "00000000000004c0" "000000000000d03f")  # 1.0 -2.5 0.25
    )
    assert json.loads(header_json) == header


def test_write_raises_before_opening_the_file():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        with pytest.raises(ValueError):
            container.write(path, MAGIC, VERSION, {"shapes": [[1]]}, [np.array(["a"])], accept_any)
        assert not path.exists()


def test_save_features_holds_no_copy_of_the_payload():
    frames = np.random.default_rng(4).standard_normal((645, 256))
    fm = FeatureMatrix(frames=frames, clip_id="c", label=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.mclf"
        save_features(fm, path)  # warm-up: imports and first-call caches
        tracemalloc.start()
        try:
            save_features(fm, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes().endswith(frames.tobytes())
    assert peak < 0.1 * frames.nbytes, (peak, frames.nbytes)


# a field nested one level short of the bound: the header itself is the last level
@pytest.mark.parametrize("field", [
    pytest.param(nested_lists(MAX_HEADER_LEVELS - 1), id="lists"),
    pytest.param({"k": nested_lists(MAX_HEADER_LEVELS - 2)}, id="dict-of-lists"),
])
def test_a_header_nests_at_most_the_bound_on_write_and_on_read(tmp_path, field):
    at_bound = {"shapes": [], "x": field}
    path = tmp_path / "c.bin"
    container.write(path, MAGIC, VERSION, at_bound, [], accept_any)
    assert container.read(path, MAGIC, VERSION, declared, accept_any) == (at_bound, [])
    deeper = tmp_path / "d.bin"
    with pytest.raises(ValidationError, match=f"header field 'x' .* deeper than {MAX_HEADER_LEVELS}"):
        container.write(deeper, MAGIC, VERSION, {**at_bound, "x": [field]}, [], accept_any)
    assert not deeper.exists()
    rewrite_header_by_hand(path, lambda h: h.update(x=[h["x"]]))
    with pytest.raises(FileFormatError, match=f"nests deeper than {MAX_HEADER_LEVELS} levels"):
        container.read(path, MAGIC, VERSION, declared, accept_any)
