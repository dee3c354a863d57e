"""Property tests of the file readers.

What a writer saves loads back unchanged, and arbitrary bytes in a PGM, a
tensor file, a rank table or a manifest either load or raise a validation
error (``ValueError``) or an ``OSError``, never another exception.  The
examples are derandomized and nothing is stored between runs, so the suite
stays deterministic.
"""

import atexit
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra import numpy as hnp

from vsorank.dataset import (
    RankAnnotation,
    load_annotation,
    load_annotations,
    read_tensor_file,
    save_annotation,
    save_annotations,
    write_tensor_file,
)
from vsorank.pgm import PgmError, read_pgm16, write_pgm16

# Hypothesis caches constants read from the source while collecting tests,
# even with no example database; keep that cache out of the working tree.
_STORAGE = tempfile.TemporaryDirectory()
atexit.register(_STORAGE.cleanup)
set_hypothesis_home_dir(_STORAGE.name)

# When an example fails, Hypothesis's pytest plugin imports libcst to write a
# patch, and that import raises this warning; as an error it would abort the
# whole session instead of reporting the one failure.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=12,
)


def _json_bytes(strategy):
    return strategy.map(lambda value: json.dumps(value).encode("utf-8"))


def _loads_or_rejects(load, path, content):
    with open(path, "wb") as f:
        f.write(content)
    try:
        load(path)
    except (ValueError, OSError):
        pass


# -- round trips ---------------------------------------------------------------


@FUZZ
@given(hnp.arrays(np.uint16, hnp.array_shapes(min_dims=2, max_dims=2, max_side=16)))
def test_pgm_round_trip(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.pgm")
        write_pgm16(path, values)
        loaded = read_pgm16(path)
    assert loaded.dtype == np.uint16 and np.array_equal(loaded, values)


@FUZZ
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5)))
def test_tensor_file_round_trip(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.bin")
        write_tensor_file(path, values)
        loaded = read_tensor_file(path)
    assert loaded.shape == values.shape
    assert loaded.tobytes() == np.asarray(values, dtype="<f8").tobytes()


@st.composite
def annotations(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=8))
    ids = draw(st.lists(st.integers(1, 65535), unique=True, max_size=6))
    instance_map = draw(hnp.arrays(np.uint16, shape, elements=st.sampled_from([0, *ids])))
    present = sorted(set(np.unique(instance_map).tolist()) - {0})
    ranks = draw(st.permutations(range(1, len(present) + 1)))
    return RankAnnotation(instance_map, dict(zip(present, ranks)))


@FUZZ
@given(annotations())
def test_annotation_round_trip(annotation):
    with tempfile.TemporaryDirectory() as tmp:
        paths = os.path.join(tmp, "0.pgm"), os.path.join(tmp, "0.json")
        save_annotation(annotation, *paths)
        loaded = load_annotation(*paths)
    assert np.array_equal(loaded.instance_map, annotation.instance_map)
    assert loaded.ranks == annotation.ranks


# -- arbitrary bytes -------------------------------------------------------------


def _pgm_headers():
    field = st.integers(-2, 4096).map(lambda n: str(n).encode()) | st.binary(max_size=3)
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n", b""])
    parts = st.tuples(st.sampled_from([b"P5", b"P2", b""]), sep, field, sep, field, sep,
                      st.sampled_from([b"65535", b"255", b"0"]) | field, sep)
    return parts.map(b"".join)


@FUZZ
@given(st.binary(max_size=64) | st.tuples(_pgm_headers(), st.binary(max_size=64)).map(b"".join))
def test_pgm_bytes_load_or_reject(content):
    with tempfile.TemporaryDirectory() as tmp:
        _loads_or_rejects(read_pgm16, os.path.join(tmp, "map.pgm"), content)


def _oracle_token(f) -> bytes:
    token = b""
    while True:
        ch = f.read(1)
        if ch == b"":
            raise EOFError
        if ch == b"#":
            while ch not in (b"\n", b"", b"\r"):
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def oracle_read_pgm16(path):
    """The reader ``read_pgm16`` replaced, one ``f.read(1)`` per header byte,
    with its one fault mended: an end of file in the header is reported as
    such, not as a non-numeric header field."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P5":
            raise PgmError(f"{path}: not a binary PGM (magic {magic!r})")
        try:
            width = int(_oracle_token(f))
            height = int(_oracle_token(f))
            maxval = int(_oracle_token(f))
        except EOFError:
            raise PgmError(f"{path}: unexpected end of file in header") from None
        except ValueError as exc:
            raise PgmError(f"{path}: non-numeric header field") from exc
        if width < 1 or height < 1:
            raise PgmError(f"{path}: bad dimensions {width}x{height}")
        if maxval != 65535:
            raise PgmError(f"{path}: expected maxval 65535, got {maxval}")
        size = width * height * 2
        if size > os.fstat(f.fileno()).st_size - f.tell():
            raise PgmError(f"{path}: truncated pixel data")
        return np.frombuffer(f.read(size), dtype=">u2").reshape(height, width).astype(np.uint16)


def _small_pgms():
    """Headers that mostly parse: small sizes, comments ended by CR or LF, and
    now and then a comment inside a number, a comment to the end of the file
    or a field that ``int`` reads in its own way."""
    field = st.sampled_from([b"1", b"2", b"3", b"2", b"3", b"0", b"-1", b"2#c\n3", b"+2", b"1_0",
                             b"0x2", b"\xd9\xa1"])
    sep = st.sampled_from([b" ", b"\n", b"\r\n", b"\x0b", b"\t# c\r", b"\n# x\n ", b" ", b"\n",
                           b"#", b""])
    maxval = st.sampled_from([b"65535", b"65535", b"65535", b"065535", b"255", b"3"])
    parts = st.tuples(st.sampled_from([b"P5", b"P5", b"P5", b"P5#\n", b"P"]), sep, field, sep, field,
                      sep, maxval, sep, st.binary(min_size=2, max_size=40))
    return parts.map(b"".join)


@settings(FUZZ, max_examples=300)
@given(st.binary(max_size=64) | _small_pgms()
       | st.tuples(_pgm_headers(), st.binary(max_size=64)).map(b"".join))
def test_pgm_reader_matches_byte_at_a_time_oracle(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.pgm")
        with open(path, "wb") as f:
            f.write(content)
        results = []
        for read in (read_pgm16, oracle_read_pgm16):
            try:
                results.append(read(path))
            except PgmError as exc:
                results.append(str(exc))
    got, expected = results
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.dtype == np.uint16 and np.array_equal(got, expected)


def test_pgm_end_of_file_in_header_names_the_path(tmp_path):
    path = tmp_path / "map.pgm"
    path.write_bytes(b"P5\n128 128\n65535")
    with pytest.raises(PgmError) as raised:
        read_pgm16(path)
    assert str(raised.value) == f"{path}: unexpected end of file in header"


def _tensor_headers():
    shape = st.lists(st.integers(-1, 3), max_size=6) | st.just([1] * 65) | JSON
    header = st.fixed_dictionaries({}, optional={"dtype": st.just("<f8") | JSON, "shape": shape})
    return _json_bytes(header | JSON)


@FUZZ
@given(st.binary(max_size=64)
       | st.tuples(_tensor_headers(), st.sampled_from([b"\n", b""]), st.binary(max_size=72))
       .map(b"".join))
def test_tensor_bytes_load_or_reject(content):
    with tempfile.TemporaryDirectory() as tmp:
        _loads_or_rejects(read_tensor_file, os.path.join(tmp, "t.bin"), content)


def _rank_tables():
    key = st.sampled_from(["1", "2", "01", " 1", "-1", "1.0", "١"]) | st.text(max_size=3)
    value = st.integers(-1, 3) | JSON
    table = st.dictionaries(key, value, max_size=4)
    return _json_bytes(st.fixed_dictionaries({"ranks": table | JSON}) | JSON)


@FUZZ
@given(st.binary(max_size=64) | _rank_tables())
def test_rank_table_bytes_load_or_reject(content):
    with tempfile.TemporaryDirectory() as tmp:
        annotation = RankAnnotation(np.array([[0, 1, 2]], dtype=np.uint16), {1: 1, 2: 2})
        pgm, ranks = os.path.join(tmp, "0.pgm"), os.path.join(tmp, "0.json")
        save_annotation(annotation, pgm, ranks)
        _loads_or_rejects(lambda path: load_annotation(pgm, path), ranks, content)


def _manifests():
    frames = st.lists(st.integers(-1, 2) | st.integers() | JSON, max_size=3) | JSON
    manifest = st.fixed_dictionaries({}, optional={"frames": frames, "seed": st.integers() | JSON})
    return _json_bytes(manifest | JSON)


@FUZZ
@given(st.binary(max_size=64) | _manifests())
def test_manifest_bytes_load_or_reject(content):
    with tempfile.TemporaryDirectory() as tmp:
        annotation = RankAnnotation(np.array([[0, 1]], dtype=np.uint16), {1: 1})
        save_annotations(tmp, [annotation, annotation])
        _loads_or_rejects(lambda path: load_annotations(tmp),
                          os.path.join(tmp, "manifest.json"), content)
