"""'%.17g' for whole float64 arrays, byte for byte as Python's % gives it.

For finite x != 0 write |x| = M 2^(e-53) (np.frexp, M < 2^53) and k for the
decimal exponent of |x|.  The 17 significant digits are N = round(|x| 10^q),
q = 16 - k, half to even: |x| 10^q = M 5^q / 2^s with s = 53 - e - q, and
for q in [0, Q_MAX] the product M 5^q < 2^116 is exact in two uint64 limbs.
That covers 1e-11 <= |x| < 2^51, where s also stays in [1, 63]; zero has
its own token, and every other value is formatted by % one at a time.

Each token is built in four uint64 words whose little-endian bytes are its
text, padded with NUL bytes that are dropped at the end:
  head  right-aligned sign, "0.000" prefix and leading digit;
  body  the other digits with the decimal point shifted in (two words);
  tail  any spill of the body, "e-XX" and the separator.
Every step is one numpy operation over a pass of at most CHUNK values, and
one boolean index drops the NULs of the pass.
"""

from __future__ import annotations

import numpy as np

Q_MAX = 27                  # 5**27 < 2**63
ROW = 32                    # bytes per value: more than any %.17g and its separator
# values per pass.  Passes of 10,240 values took twice as long over the two
# oracle tables: their freed temporaries went back to the system and every
# pass page-faulted them in again.  Passes of 8,000 fault on the first only.
CHUNK = 8000
# at q & 31; the entries past Q_MAX go unused
_POW5 = np.array([5 ** q if q <= Q_MAX else 0 for q in range(32)], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)


def _le(rows) -> np.ndarray:
    """Each row of at most 8 byte-valued characters as the uint64 whose
    little-endian bytes they are, NUL-padded on the right."""
    raw = "".join(r.ljust(8, "\0") for r in rows).encode("latin-1")
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


# right-aligned [-][prefix 0.000ddd for X = -4 ... -1][leading digit]
_HEAD = _le((sign + prefix + lead).rjust(8, "\0") for sign in ("", "-")
            for prefix in ("0.000", "0.00", "0.0", "0.", "") for lead in "0123456789")
# the four digits of 0-9999 in the same form, and how many of them end it as zeros
_I4 = np.arange(10 ** 4, dtype=np.uint64)
_DIGITS4 = sum((48 + _I4 // np.uint64(10 ** (3 - j)) % np.uint64(10)) << np.uint64(8 * j)
               for j in range(4))
_TRAILING_ZEROS4 = sum((_I4 % np.uint64(10 ** j) == 0).astype(np.intp) for j in range(1, 5))
# the 16 body bytes as two words w: _BYTES[w][j] keeps the first j of them,
# _DOT[w][j] is a point at byte j (none at 16)
_BYTES = (_le("\xff" * min(j, 8) for j in range(17)),
          _le("\xff" * max(j - 8, 0) for j in range(17)))
_DOT = (_le(["\0" * j + "." for j in range(8)] + [""] * 9),
        _le([""] * 8 + ["\0" * j + "." for j in range(8)] + [""]))
# "e-XX" after a byte of body spill, at (X + 20) & 63 for decimal exponents
# X = -20 ... 43 (none inside %g's fixed range), and the shift that puts the
# separator next
_EXP_TEXT = ["" if -4 <= x <= 16 else f"e{x:+03d}" for x in range(-20, 44)]
_EXPONENTS = _le("\0" + t for t in _EXP_TEXT)
_SEP_SHIFT = np.array([8 + 8 * len(t) for t in _EXP_TEXT], dtype=np.uint64)


def _truncated(M, e, k):
    """floor(|x| 10^(16-k)), the bits below it and the shift s, where q and s
    are in range (fast); elsewhere values that go unused."""
    q = 16 - k
    s = (53 - e - q).astype(np.uint64)      # a negative s wraps past 63
    fast = (q.astype(np.uint64) <= Q_MAX) & (s - np.uint64(1) <= np.uint64(62))
    f = _POW5[q & 31]
    s &= np.uint64(63)
    # M 5^q as hi 2^64 + lo, from 32-bit halves: M < 2^53, 5^q < 2^63
    mh, ml, fh, fl = M >> 32, M & _LO32, f >> 32, f & _LO32
    ll = ml * fl
    mid = ml * fh + mh * fl
    lo = ll + (mid << 32)
    hi = mh * fh + (mid >> 32) + (lo < ll)
    n = (hi << (64 - s)) | (lo >> s)
    return n, lo & ((np.uint64(1) << s) - 1), s, fast


def format_g17(columns, seps: str):
    """Yield the text of equal-length columns row by row: each value x of
    column j as '%.17g' % x followed by seps[j].  So five columns with
    seps = ',,,,\\n' give CSV rows.  The text comes in pieces of at most
    CHUNK values, so what is held at once does not grow with the columns."""
    if len(columns) != len(seps) or len({len(c) for c in columns}) > 1:
        raise ValueError("format_g17 takes one separator per column, and equal-length columns")
    rows = max(CHUNK // len(seps), 1)
    for lo in range(0, len(columns[0]), rows):
        x = np.stack([c[lo : lo + rows] for c in columns], axis=1)
        yield _format(np.asarray(x, dtype=np.float64).ravel(), seps)


def _format(x, seps):
    """format_g17 of one pass of flat values."""
    a = np.abs(x)
    zero = a == 0
    finite = np.isfinite(a) & ~zero
    a = np.where(finite, a, 1.0)
    m, e = np.frexp(a)
    M = (m * 2.0 ** 53).astype(np.uint64)
    e = e.astype(np.int64)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, rem, s, fast = _truncated(M, e, k)
    # log10 may round across a power of ten: move k by one where N has 18
    # or 16 digits, and truncate again at the new place
    dk = (n >= _E17).astype(np.int64) - (n < _E16)
    off = np.nonzero(dk & finite)[0]
    if off.size:
        k[off] += dk[off]
        n[off], rem[off], s[off], fast[off] = _truncated(M[off], e[off], k[off])
    # round half to even on the exact remainder.  No double rounds up to
    # 10^17 (17 digits tell doubles apart, and none prints as a power of ten
    # it is not); were one to, % would format it
    half = np.uint64(1) << (s - np.uint64(1))
    n += (rem > half) | ((rem == half) & (n & np.uint64(1)).astype(bool))
    fast &= finite & (n >= _E16) & (n < _E17)
    n[~fast] = 0             # zero's digits, and k = 0 from a = 1; % formats the rest

    lead, rest = np.divmod(n, _E16)
    rest = rest.astype(np.intp)
    hi, lo = np.divmod(rest, 10 ** 8)
    groups = np.divmod(hi, 10 ** 4) + np.divmod(lo, 10 ** 4)
    zeros = _TRAILING_ZEROS4[groups[3]]
    for w in (2, 1, 0):
        zeros += (zeros == 4 * (3 - w)) * _TRAILING_ZEROS4[groups[w]]
    nd = 17 - zeros

    # %g: fixed point for -4 <= X <= 16 with X + 1 integer digits, trailing
    # zeros of the fraction dropped; else d.ddde-XX, as X >= -11 here
    fixed = (k >= -4) & (k <= 16)
    whole = np.where(fixed & (k >= 0), k + 1, 1)
    keep = np.where(fixed, np.maximum(nd, whole), nd) - 1     # body digits
    point = np.where((nd > whole) & ~(fixed & (k < 0)), whole - 1, 16)
    prefix = np.where(fixed & (k < 0), k + 4, 4)
    words = np.empty((4, x.size), dtype=np.uint64)
    words[0] = _HEAD[(np.signbit(x) * 5 + prefix) * 10 + lead.astype(np.intp)]
    d0 = (_DIGITS4[groups[0]] | (_DIGITS4[groups[1]] << 32)) & _BYTES[0][keep]
    d1 = (_DIGITS4[groups[2]] | (_DIGITS4[groups[3]] << 32)) & _BYTES[1][keep]
    # the digits from the point on move up one byte, the last into the tail
    below0, below1 = _BYTES[0][point], _BYTES[1][point]
    up0, up1 = d0 & ~below0, d1 & ~below1
    words[1] = (d0 & below0) | _DOT[0][point] | (up0 << 8)
    words[2] = (d1 & below1) | _DOT[1][point] | (up1 << 8) | (up0 >> 56)
    kx = (k + 20) & 63
    sep = np.tile(np.frombuffer(seps.encode("ascii"), dtype=np.uint8).astype(np.uint64),
                  x.size // len(seps))
    words[3] = (up1 >> 56) | _EXPONENTS[kx] | (sep << _SEP_SHIFT[kx])

    row = np.empty((x.size, 4), dtype="<u8")
    row[...] = words.T
    row = row.view(np.uint8)
    slow = np.nonzero(~(fast | zero))[0]
    if slow.size:
        row[slow] = np.frombuffer(b"".join(
            ("%.17g%s" % (x[i], seps[i % len(seps)])).encode("ascii").ljust(ROW, b"\0")
            for i in slow.tolist()), dtype=np.uint8).reshape(-1, ROW)
    row = row.ravel()
    return row[row != 0].tobytes().decode("ascii")
