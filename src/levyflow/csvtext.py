"""CSV text of a float64 table, each value exactly as Python's ``"%.17g"``.

``format_rows`` writes a table with a few dozen numpy calls per chunk of
rows instead of one ``%`` conversion per value.  A value with 1e-4 <= |x| <
1e17, whose 17 digits are written in fixed notation, takes the fast path:

* its decimal exponent X is ``floor(log10|x|)``, corrected by one where the
  logarithm rounds across a power of ten;
* |x| 10^(16-X) is split exactly into hi + lo by Dekker's product (a
  Veltkamp split; 10^k is an exact double for k <= 22).  hi lies in
  [1e16, 1e17], where doubles are even integers, so hi + rint(lo) is the
  17-digit integer rounded half to even, as Python's correctly rounded
  conversion rounds it;
* the digits come from a 4-digit table, and each exponent's strings are laid
  out by column slices after a stable sort groups the values by exponent.

Zeros are written directly.  Every other value (|x| < 1e-4, |x| >= 1e17,
inf and nan) is formatted by Python's own ``"%.17g"``, in one call per
chunk, and spliced in.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 24      # the longest "%.17g" of a double, as in -1.2345678901234567e-308
_CHUNK = 8192    # values formatted at once: a working set of about 1 MB
_FALLBACK = 22   # group keys: 0-20 the exponents -4..16, 21 zeros, 22 the rest
_ZERO = 21

_POW10 = np.array([float(10 ** k) for k in range(21)])
_SPLIT = 134217729.0   # 2**27 + 1: Veltkamp's splitter for a 53-bit significand
# each 4-digit group as its 4 ASCII bytes in one uint32: entry i is i with
# leading zeros, entry 10000 + i the same with its trailing zeros as 0 bytes
_ascii = (48 + np.indices((10,) * 4, dtype=np.uint8)).reshape(4, -1).T.copy()
_stripped = _ascii * np.logical_or.accumulate(_ascii[:, ::-1] != 48, axis=1)[:, ::-1]
_DIGITS4 = np.concatenate([_ascii, _stripped]).view(np.uint32).ravel()
del _ascii, _stripped


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as an exact sum hi + lo of doubles (Dekker's product)."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each a in [1e-4, 1e17) as an int64, and
    its decimal exponent.

    Rounding never carries into an 18th digit here: a double below 10^(X+1)
    lies at least 1.1e-16 of it away, above half a unit in the 17th digit,
    and 10^-1 to 10^-4 round up to their doubles, so no double stands just
    below them.
    """
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    hi, lo = _scaled(a, 16 - x)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))     # hi + lo >= 1e17
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))    # hi + lo < 1e16
    if up.any() or down.any():
        x += up
        x -= down
        hi, lo = _scaled(a, 16 - x)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), x


def _ascii_digits(d: np.ndarray) -> np.ndarray:
    """(n, 17) ASCII digits of 17-digit integers, trailing zeros set to 0."""
    # scalar divisors keep numpy's fast integer division
    first = d // 10 ** 16
    high, low = np.divmod(d - first * 10 ** 16, 10 ** 8)
    g1, g2 = np.divmod(high, 10 ** 4)
    g3, g4 = np.divmod(low, 10 ** 4)
    # a group with only zeros after it takes the table without trailing zeros
    z4 = g4 == 0
    z3 = z4 & (g3 == 0)
    z2 = z3 & (g2 == 0)
    out = np.empty((d.size, 5), np.uint32)
    out[:, 0] = _DIGITS4[first]
    out[:, 1] = _DIGITS4[g1 + 10000 * z2]
    out[:, 2] = _DIGITS4[g2 + 10000 * z3]
    out[:, 3] = _DIGITS4[g3 + 10000 * z4]
    out[:, 4] = _DIGITS4[g4 + 10000]
    return out.view(np.uint8)[:, 3:]


def _fields(v: np.ndarray) -> np.ndarray:
    """(n, _WIDTH + 1) ASCII fields of the values v, each padded with 0 bytes."""
    a = np.abs(v)
    key = np.full(v.size, _FALLBACK, np.int8)
    key[v == 0] = _ZERO
    fast = np.flatnonzero((a >= 1e-4) & (a < 1e17))
    digits, exponent = _digits(a[fast])
    key[fast] = exponent + 4
    order = np.argsort(key, kind="stable")
    # group g holds the sorted values bounds[g]:bounds[g + 1]; the fast ones
    # come first, in the order of their exponents
    bounds = [0] + np.cumsum(np.bincount(key, minlength=_FALLBACK + 1)).tolist()
    dig = _ascii_digits(digits[np.argsort(key[fast], kind="stable")])   # int8: a radix sort

    out = np.zeros((v.size, _WIDTH + 1), np.uint8)
    out[:, 0] = 45 * np.signbit(v[order])
    for g in range(_ZERO):
        s, e = bounds[g], bounds[g + 1]
        if s == e:
            continue
        x, rows = g - 4, out[s:e]
        if x >= 0:
            rows[:, 1:x + 2] = dig[s:e, :x + 1] | 48   # integer digits keep their zeros
            if x < 16:
                rows[:, x + 2] = 46 * (dig[s:e, x + 1] != 0)
                rows[:, x + 3:19] = dig[s:e, x + 1:]
        else:
            rows[:, 1:2 - x] = 48
            rows[:, 2] = 46
            rows[:, 2 - x:19 - x] = dig[s:e]
    out[bounds[_ZERO]:bounds[_FALLBACK], 1] = 48
    s = bounds[_FALLBACK]
    if s < v.size:
        rest = v[order[s:]].tolist()
        text = (f"%-{_WIDTH}.17g" * len(rest)) % tuple(rest)
        fields = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _WIDTH)
        out[s:, :_WIDTH] = fields * (fields != 32)   # padding spaces become 0 bytes
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted


def format_rows(table: np.ndarray, lead: tuple | None = None) -> tuple[bytearray, np.ndarray]:
    """The CSV text of a 2-D float64 table, and the offset where each row ends.

    Each value is written as ``"%.17g" % value`` would write it, byte for
    byte, values joined by ``,`` and each row ended by ``\\n``.  With
    ``lead = (values, index)`` each row starts with one more column,
    ``values[index]``, whose values are formatted once each: a run's time
    grid, which all its paths share.  The rows are formatted in chunks of
    about ``_CHUNK`` values.
    """
    n_rows, n_cols = table.shape
    lead_fields = None if lead is None else _fields(np.asarray(lead[0], dtype=np.float64))
    first = int(lead is not None)
    step = max(1, _CHUNK // n_cols)
    text, ends = bytearray(), [np.zeros(0, np.intp)]
    for r in range(0, n_rows, step):
        block = np.asarray(table[r:r + step], dtype=np.float64)
        fields = np.empty((block.shape[0], first + n_cols, _WIDTH + 1), np.uint8)
        fields[:, first:] = _fields(block.ravel()).reshape(block.shape[0], n_cols, _WIDTH + 1)
        if first:
            fields[:, 0] = lead_fields[lead[1][r:r + step]]
        fields[:, :, _WIDTH] = 44
        fields[:, -1, _WIDTH] = 10
        chunk = fields.tobytes().translate(None, b"\0")
        ends.append(len(text) + 1 + np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10))
        text += chunk
    return text, np.concatenate(ends)
