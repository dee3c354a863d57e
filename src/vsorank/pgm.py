"""16-bit binary PGM (P5) reader and writer.

Instance-ID maps are stored as P5 images with maxval 65535 and big-endian
sample order, which is lossless, supports up to 65535 instances, and stays
readable by standard netpbm tools.
"""

import os

import numpy as np

__all__ = ["PgmError", "read_pgm16", "write_pgm16"]


class PgmError(ValueError):
    """Malformed or unsupported PGM content."""


def _read_token(f) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments."""
    token = b""
    while True:
        ch = f.read(1)
        if ch == b"":
            raise PgmError("unexpected end of file in header")
        if ch == b"#":
            while ch not in (b"\n", b"", b"\r"):
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_pgm16(path) -> np.ndarray:
    """Read a 16-bit P5 file into a (height, width) uint16 array."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P5":
            raise PgmError(f"{path}: not a binary PGM (magic {magic!r})")
        try:
            width = int(_read_token(f))
            height = int(_read_token(f))
            maxval = int(_read_token(f))
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


def write_pgm16(path, values: np.ndarray) -> None:
    """Write a 2D array of non-negative integers <= 65535 as 16-bit P5."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise PgmError(f"image must be 2D, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 65535:
        raise PgmError("pixel values must fit in uint16")
    height, width = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        f.write(arr.astype(">u2").tobytes())
