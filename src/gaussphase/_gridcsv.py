"""Grid CSV text: Python's exact "%.17g" of float64 arrays, in numpy blocks.

|x| = f * 2**e with f in [0.5, 1) (np.frexp, exact over the whole double
range, subnormals included), and the decimal exponent k of x follows from
e and one comparison with the power of ten in x's binade.
y = f * (10**(16-k) * 2**e) lies in [10**16, 10**17); the scale is held as
hi + lo from exact integer arithmetic, built on first use for the
exponents a call needs, f * hi is split exactly with Dekker's product, and
the 17 digits are y rounded to an integer.  The evaluation error is below
2**-47, so a value whose y lies within _TIE_MARGIN of a half-integer (exact
ties among them) is the only finite one left to "%.17g" itself.  Digits,
sign, leading zeros, point and exponent are looked up as NUL-padded
eight-character words, and a block of CSV lines is those words with the
NULs dropped.

:func:`gaussphase.cli.grid_to_csv` imports this module when it writes a
grid, so that the other commands neither load nor compile it.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

_E_OFFSET = 1074  # np.frexp's exponent e runs from -1073 (2**-1074) to 1024
_N_EXPONENTS = 2099
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_TIE_MARGIN = 2.0**-40
BLOCK_LINES = 4096  # CSV lines formatted per numpy pass
_WORD = np.dtype("<u8")  # eight characters, the first in the low byte


def _pow10_pow2(j: int, e: int) -> tuple[int, int]:
    """10**j * 2**e as an integer numerator and denominator."""
    num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
    return (num << e, den) if e >= 0 else (num, den << -e)


@functools.cache
def _decimal_scales() -> tuple[np.ndarray, ...]:
    """Per np.frexp exponent e, filled on first use by _fill_decimal_scales:
    whether the entry is built; the smallest double >= the power of ten in
    [2**(e-1), 2**e) (inf if there is none); k0 = floor(log10(2**(e-1)));
    and, at 2 i + up for k = k0 + up, the scale 10**(16-k) * 2**e as
    hi = hi_big + hi_small (Veltkamp halves) and lo = scale - hi."""
    n = _N_EXPONENTS
    return np.zeros(n, bool), np.empty(n), np.empty(n, np.int64), np.empty(2 * n), np.empty(2 * n), np.empty(2 * n)


def _fill_decimal_scales(indices) -> None:
    built, threshold, k0, hi_big, hi_small, lo = _decimal_scales()
    for i in indices:
        e = i - _E_OFFSET
        k = math.floor((e - 1) * 0.30102999566398120)  # log10(2): off by one at most
        # the scale for k, 10**(16-k) 2**e = 2 * 10**16 * 2**(e-1) / 10**k, is in
        # [2 * 10**16, 2 * 10**17) exactly when k = floor(log10(2**(e-1)))
        num, den = _pow10_pow2(16 - k, e)
        if num < 2 * 10**16 * den:
            k, num = k - 1, num * 10
        elif num >= 2 * 10**17 * den:
            k, den = k + 1, den * 10
        k0[i] = k
        threshold[i] = math.inf
        if num > 10**17 * den:  # 10**(k+1) < 2**e
            num1, den1 = _pow10_pow2(k + 1, 0)
            t = num1 / den1  # correctly rounded; rounded up below if low
            a, b = t.as_integer_ratio()
            threshold[i] = math.nextafter(t, math.inf) if a * den1 < num1 * b else t
        for slot in (2 * i, 2 * i + 1):
            hi = num / den
            a, b = hi.as_integer_ratio()
            lo[slot] = (num * b - a * den) / (den * b)
            c = hi * _VELTKAMP
            hi_big[slot] = c - (c - hi)
            hi_small[slot] = hi - hi_big[slot]
            den *= 10  # the scale for k + 1
        built[i] = True


@functools.cache
def _char_tables() -> tuple[np.ndarray, ...]:
    """Characters as NUL-padded words (byte 0 first).

    ``groups``: a four-digit group g in bytes 0-3 at index g, and at
    10000 + g with its trailing zeros as NUL.  ``lead``: at
    40 z + 20 neg + 2 d + point, the sign, then "0." and z - 1 zeros for
    fixed notation with k = -z, the leading digit d in byte 6 and the point
    in byte 7.  ``exponent``: "e+XX" or "e-XXX" at k + 324, NUL for
    -4 <= k < 17.  ``below``: at m, the bytes below byte m set."""
    n = np.arange(10000.0)
    chars = np.zeros((2, 10000, 8), np.uint8)
    zero_tail = np.ones(10000, bool)
    for col in (3, 2, 1, 0):
        rest = np.floor(n / 10)
        digit = n - 10 * rest
        chars[:, :, col] = 48 + digit
        zero_tail &= digit == 0
        chars[1, zero_tail, col] = 0
        n = rest
    lead = b"".join(
        (b"-" * neg + (b"0." + b"0" * (z - 1) if z else b"")).ljust(6, b"\0") + b"%d" % d + (b"." if point else b"\0")
        for z in range(5)
        for neg in (0, 1)
        for d in range(10)
        for point in (0, 1)
    )
    exponent = b"".join((b"e%+03d" % k if not -4 <= k < 17 else b"").ljust(8, b"\0") for k in range(-324, 310))
    return (
        chars.view(_WORD).ravel(),
        np.frombuffer(lead, _WORD),
        np.frombuffer(exponent, _WORD),
        np.array([(1 << 8 * m) - 1 for m in range(9)], _WORD),
    )


def _digit_words(groups: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits 2-9 and 10-17 as two words, from the group indices g[0:4]."""
    shift = np.uint64(32)
    return groups[g[0]] | groups[g[1]] << shift, groups[g[2]] | groups[g[3]] << shift


def g17_words(x: np.ndarray, out: np.ndarray) -> int:
    """Writes "%.17g" % v for each v of the 1-D float64 array x into the
    rows of out, an (x.size, 4) array of words, as 32 NUL-padded bytes:
    sign, leading zeros and first digit; digits 2-9; digits 10-17; the
    exponent, or the last digit when fixed notation puts a point among
    the digits.  Returns how many values were formatted one by one."""
    finite = np.isfinite(x)
    ax = np.abs(x)
    ax[~finite] = 0.0
    f, e = np.frexp(ax)
    idx = e + _E_OFFSET
    built, threshold, k0, hi_big, hi_small, lo = _decimal_scales()
    missing = ~built[idx]
    if missing.any():
        _fill_decimal_scales(set(idx[missing].tolist()))
    up = ax >= threshold[idx]
    k = k0[idx] + up
    j = 2 * idx + up
    h1, h2 = hi_big[j], hi_small[j]
    c = f * _VELTKAMP
    f1 = c - (c - f)
    f2 = f - f1
    p = f * (h1 + h2)  # an integer; p + err = f * hi exactly
    h = (((f1 * h1 - p) + f1 * h2 + f2 * h1) + f2 * h2 + f * lo[j]) + 0.5
    rounding = np.floor(h)
    h -= rounding
    odd = (h < _TIE_MARGIN) | (h > 1 - _TIE_MARGIN) | ~finite
    # p + rounding = 10**8 a + b, all integers below 2**53 from here on
    a = np.floor(p / 1e8)
    b = p - a * 1e8 + rounding
    spill = np.floor(b / 1e8)
    a += spill
    b -= spill * 1e8
    ten17 = a == 1e9  # rounded up to 10**17: one digit, one decade up
    a[ten17] = 1e8
    k += ten17
    k[ax == 0] = 0
    lead_digit = np.floor(a / 1e8)
    a -= lead_digit * 1e8
    g = np.empty((4, x.size), np.intp)
    g[0] = np.floor(a / 1e4)
    g[1] = a - g[0] * 1e4
    g[2] = np.floor(b / 1e4)
    g[3] = b - g[2] * 1e4
    # a group loses its trailing zeros (index + 10000) when all later ones are 0
    stripped = g + 10000
    for i in (2, 1, 0):
        stripped[i] -= 10000 * (stripped[i + 1] != 10000)
    sci = (k < -4) | (k >= 17)
    point = (stripped[0] != 10000) & (sci | (k == 0))  # right after the first digit
    zeros = np.where(sci | (k >= 0), 0, -k)
    groups, lead, exponent, _ = _char_tables()
    out[:, 0] = lead[40 * zeros + 20 * np.signbit(x) + 2 * lead_digit.astype(np.intp) + point]
    out[:, 1], out[:, 2] = _digit_words(groups, stripped)
    out[:, 3] = exponent[k + 324]
    rows = np.flatnonzero(~sci & (k > 0))  # fixed notation with 2 to 17 integer digits
    if rows.size:
        _move_point(out, rows, k[rows], g[:, rows])
    for i in np.flatnonzero(odd).tolist():
        text = b"%.17g" % x[i]
        out[i] = 0
        out.view(np.uint8)[i, : len(text)] = np.frombuffer(text, np.uint8)
    return int(np.count_nonzero(odd))


def _move_point(out: np.ndarray, rows: np.ndarray, k: np.ndarray, g: np.ndarray) -> None:
    """Rewrites digits 2-17 of the given rows with k of them before the
    point: those keep their zeros, the rest move one byte up past it."""
    groups, _, _, below = _char_tables()
    whole = _digit_words(groups, g)
    keep = [below[np.clip(k - 8 * w, 0, 8)] for w in (0, 1)]
    int0, int1 = whole[0] & keep[0], whole[1] & keep[1]
    frac0, frac1 = out[rows, 1] & ~keep[0], out[rows, 2] & ~keep[1]
    point = np.where((frac0 | frac1) != 0, np.uint64(ord(".")), np.uint64(0))
    point <<= (8 * (k % 8)).astype(np.uint64)
    none, byte, top = np.uint64(0), np.uint64(8), np.uint64(56)
    out[rows, 1] = int0 | frac0 << byte | np.where(k < 8, point, none)
    out[rows, 2] = int1 | frac1 << byte | frac0 >> top | np.where(k < 8, none, point)
    out[rows, 3] = frac1 >> top


def g17_bytes(x: np.ndarray) -> list[bytes]:
    """"%.17g" % v for each v of x, as ASCII bytes."""
    words = np.empty((x.size, 4), _WORD)
    g17_words(np.asarray(x, dtype=float).ravel(), words)
    return [row.tobytes().translate(None, b"\0") for row in words]


def _padded_words(texts: list[bytes]) -> np.ndarray:
    """The texts NUL-padded to one width, as rows of words."""
    width = -(-max(map(len, texts)) // 8)
    return np.frombuffer(b"".join(t.ljust(8 * width, b"\0") for t in texts), _WORD).reshape(len(texts), width)


def _block_lines(values: np.ndarray, q_words: np.ndarray, p_words: np.ndarray) -> bytes:
    """The CSV lines of a 2-D block of values, each led by its line break,
    from the padded q field of each row and p field of each column."""
    rows, cols = values.shape
    wq, wp = q_words.shape[1], p_words.shape[1]
    lines = np.empty((rows, cols, wq + wp + 4), _WORD)
    lines[:, :, :wq] = q_words[:, None]
    lines[:, :, wq : wq + wp] = p_words[None]
    g17_words(values.ravel(), lines.reshape(rows * cols, -1)[:, wq + wp :])
    return lines.tobytes().translate(None, b"\0")


def csv_lines(q: np.ndarray, p: np.ndarray, values: np.ndarray) -> Iterator[bytes]:
    """The CSV lines "q,p,w" of the grid values[i, j] = w(q[i], p[j]), q in
    the outer loop, each led by its line break, as ASCII blocks of up to
    BLOCK_LINES lines each, formatted one block at a time."""
    axes = g17_bytes(np.concatenate([q, p]))
    q_words = _padded_words([b"\n" + t + b"," for t in axes[: q.size]])
    p_words = _padded_words([t + b"," for t in axes[q.size :]])
    values = np.asarray(values, dtype=float)
    n_rows = max(1, BLOCK_LINES // p.size)
    n_cols = min(p.size, BLOCK_LINES)
    for i in range(0, q.size, n_rows):
        for j in range(0, p.size, n_cols):
            block = values[i : i + n_rows, j : j + n_cols]
            yield _block_lines(block, q_words[i : i + n_rows], p_words[j : j + n_cols])
