"""16-bit binary PGM (P5) reader and writer.

Instance-ID maps are stored as P5 images with maxval 65535 and big-endian
sample order, which is lossless, supports up to 65535 instances, and stays
readable by standard netpbm tools.
"""

import re

import numpy as np

__all__ = ["PgmError", "read_pgm16", "write_pgm16"]


class PgmError(ValueError):
    """Malformed or unsupported PGM content."""


# A run of header bytes that are neither whitespace (as bytes.isspace has it)
# nor the start of a comment.
_TOKEN_RUN = re.compile(rb"[^ \t\n\r\x0b\x0c#]*")


def _read_token(content: bytes, pos: int) -> tuple[bytes, int]:
    """The next whitespace-delimited header token at or after ``pos``,
    skipping '#' comments, and the position after the whitespace byte that
    ends it.  A comment runs through the next CR or LF, also inside a token."""
    token = b""
    while True:
        run = _TOKEN_RUN.match(content, pos)
        token += run.group()
        pos = run.end()
        if pos >= len(content):
            raise PgmError("unexpected end of file in header")
        pos += 1
        if content[pos - 1] == ord("#"):
            ends = [end for end in (content.find(b"\n", pos), content.find(b"\r", pos)) if end >= 0]
            pos = min(ends) + 1 if ends else len(content)
        elif token:
            return token, pos


def read_pgm16(path) -> np.ndarray:
    """Read a 16-bit P5 file into a (height, width) uint16 array.

    The file is read with one call and the header parsed from its bytes.
    """
    with open(path, "rb", buffering=0) as f:
        content = f.read()
    magic = content[:2]
    if magic != b"P5":
        raise PgmError(f"{path}: not a binary PGM (magic {magic!r})")
    fields, pos = [], 2
    try:
        for _ in range(3):
            token, pos = _read_token(content, pos)
            fields.append(int(token))
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise PgmError(f"{path}: non-numeric header field") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 65535:
        raise PgmError(f"{path}: expected maxval 65535, got {maxval}")
    size = width * height * 2
    if size > len(content) - pos:
        raise PgmError(f"{path}: truncated pixel data")
    # A copy: the samples start at an odd offset after a header written by
    # write_pgm16, and numpy converts unaligned samples at half the speed.
    pixels = np.frombuffer(content[pos:pos + size], dtype=">u2")
    return pixels.reshape(height, width).astype(np.uint16)


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
