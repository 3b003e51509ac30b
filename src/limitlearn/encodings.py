"""Ground-level codecs: Cantor pairing, canonical finite sets, sequences.

Everything downstream speaks naturals. Pairing is the classic Cantor diagonal,
finite sets are bit vectors (element i present iff bit i of the index is set),
and sequences are plain tuples.
Python ints are arbitrary precision, so none of these can overflow. One
search helper lives here too, for the gap-parity learner: the least natural
not yet taken, with path-compressed skips.
"""

from __future__ import annotations

from math import isqrt

Sequence = tuple[int, ...]


def _check_natural(value: int, name: str = "value") -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a natural number, got {value!r}")


def next_free(skip: dict[int, int], m: int) -> int:
    """Least n >= m that is not a key of skip; compresses the path it walks.

    Each key k maps to a larger value whose predecessors from k on are all
    keys, so a caller marks k as taken with skip[k] = k + 1.
    """
    top = m
    while top in skip:
        top = skip[top]
    while m != top:
        skip[m], m = top, skip[m]
    return top


def pair(x: int, y: int) -> int:
    """Cantor pairing (x+y)(x+y+1)/2 + y; strictly monotone in each argument."""
    _check_natural(x, "x")
    _check_natural(y, "y")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair; exact via integer square root."""
    _check_natural(z, "z")
    w = (isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    y = z - t
    x = w - y
    return x, y


def finite_set_decode(index: int) -> frozenset[int]:
    """Canonical finite set for an index: element i present iff bit i is set."""
    _check_natural(index, "index")
    out = []
    i = 0
    n = index
    while n:
        if n & 1:
            out.append(i)
        n >>= 1
        i += 1
    return frozenset(out)


def finite_set_encode(elements: frozenset[int] | set[int]) -> int:
    """Canonical index of a finite set of naturals."""
    index = 0
    for x in elements:
        _check_natural(x, "element")
        index |= 1 << x
    return index


def is_prefix(a: Sequence, b: Sequence) -> bool:
    """True iff a is an initial segment of b (every sequence extends itself).

    Each is a tuple or a list, compared item by item whichever it is.
    """
    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, (tuple, list)):
            raise ValueError(f"{name} must be a tuple or a list, got {type(v).__name__}")
    return len(a) <= len(b) and tuple(a) == tuple(b[: len(a)])
