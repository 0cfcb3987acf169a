"""The rows of samples.csv, formatted from raw (re, im) float64 pairs.

`innerclt.cli` formats the first chunk of samples with `rows` in its own
process and hands each further chunk to a child interpreter running this
file as a script (`python -I -S _csvrows.py`): the child reads native-endian
float64 values (re, im, re, im, ...) on stdin and writes the ASCII rows on
stdout.  Both sides run the same `rows` under the same interpreter, so the
bytes do not depend on which process formatted a chunk.  This module imports
only sys and array, so a child starts in milliseconds.
"""

import sys
from array import array


def rows(values) -> str:
    """One "re,im" row per (re, im) pair of the flat float sequence `values`,
    in the bytes csv.writer gives: shortest round-trip repr, CRLF endings."""
    it = iter(values)
    return "".join(f"{r!r},{i!r}\r\n" for r, i in zip(it, it))


def main() -> int:
    values = array("d")
    values.frombytes(sys.stdin.buffer.read())
    sys.stdout.buffer.write(rows(values).encode("ascii"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
