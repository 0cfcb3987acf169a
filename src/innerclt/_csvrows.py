"""The rows of samples.csv, formatted from raw (re, im) float64 pairs.

`innerclt.cli` writes the first chunk of samples with `write_rows` in its
own process and hands each further chunk to a child interpreter running this
file as a script (`python -I -S _csvrows.py`): the child reads native-endian
float64 values (re, im, re, im, ...) on stdin and writes the ASCII rows on
stdout through the same `write_rows`, BLOCK rows at a time, so its memory
does not grow with the chunk.  Both sides run the same code under the same
interpreter, so the bytes do not depend on which process formatted a chunk.
This module imports only sys and array, so a child starts in milliseconds.
"""

import sys
from array import array

# Rows per block.  `innerclt.clt` samples in blocks of the same length; the
# constant lives here because a child interpreter cannot import numpy code.
BLOCK = 8192


def rows(values) -> str:
    """One "re,im" row per (re, im) pair of the flat float sequence `values`,
    in the bytes csv.writer gives: shortest round-trip repr, CRLF endings."""
    it = iter(values)
    return "".join(f"{r!r},{i!r}\r\n" for r, i in zip(it, it))


def write_rows(values, write) -> None:
    """Pass the ASCII rows of the flat float sequence `values` to `write`,
    BLOCK rows at a time."""
    for lo in range(0, len(values), 2 * BLOCK):
        write(rows(values[lo:lo + 2 * BLOCK].tolist()).encode("ascii"))


def main() -> int:
    read = sys.stdin.buffer.read
    for data in iter(lambda: read(16 * BLOCK), b""):
        values = array("d")
        values.frombytes(data)
        write_rows(values, sys.stdout.buffer.write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
