"""Shared helpers: canonical JSON, fingerprints, float formatting."""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np


def canonical_json(obj) -> str:
    """Serialize ``obj`` to JSON with a stable key order and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(obj) -> str:
    """Hex SHA-256 digest of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


# The vectorized fmt17 below builds text in uint64 words of 8 bytes each;
# byte 0 (the least significant) comes first in the text.
_U = np.uint64
_ONES = _U(0xFFFF_FFFF_FFFF_FFFF)
_LOW32 = _U(0xFFFF_FFFF)
_ASCII0 = _U(0x3030_3030_3030_3030)  # "0" in every byte
_ASCII0_AFTER_SIGN = _U(0x3030_3030_3030_3000)  # "0" in bytes 1-7: byte 0 is the sign
_POW5 = np.array([5**q for q in range(28)], dtype=np.uint64)  # 5**27 < 2**63
# "e-XX" for the decimal exponents -10..-5, placed at bytes 19-22 of a field
_EXP_SUFFIX = np.array([int.from_bytes(b"e-%02d" % e, "little") << 24 for e in range(10, 4, -1)],
                       dtype=np.uint64)


def _scaled_digits(bits: np.ndarray, k: np.ndarray):
    """``floor(|x| 10**(16-k))`` exactly, and 1 where round-half-even rounds it up.

    ``bits`` are the IEEE bits of normal ``|x| = M 2**E``; ``q = 16 - k``
    must lie in 1..27 and ``s = -(E + q)`` in 1..63, and the quotient must
    fit in 63 bits.  The 128-bit product ``M 5**q`` is formed from 32-bit
    limbs and shifted right by ``s``.
    """
    f1 = _POW5.take(16 - k)
    f0 = f1 & _LOW32
    f1 >>= _U(32)
    m0 = bits & _LOW32
    m1 = bits >> _U(32)
    m1 &= _U(0xF_FFFF)
    m1 |= _U(0x10_0000)  # the implicit leading mantissa bit
    lo = m0 * f0
    mid = m1 * f0
    m0 *= f1
    mid += m0
    carry = lo >> _U(32)
    carry += mid & _LOW32
    lo &= _LOW32
    lo |= carry << _U(32)
    hi = m1  # high word: m1 f1 + (mid >> 32) + (carry >> 32)
    hi *= f1
    hi += mid >> _U(32)
    hi += carry >> _U(32)
    # shift by s - 1 to keep the halfway bit; the bits below it are sticky
    s1 = (bits >> _U(52)).view(np.int64)
    np.subtract(k + (1075 - 16 - 1), s1, out=s1)
    s1 = s1.view(np.uint64)
    hi <<= _U(64) - s1  # a shift of 64 or more gives 0
    d = lo >> s1
    d |= hi
    np.subtract(_U(64), s1, out=s1)
    lo <<= s1
    up = (lo != 0).view(np.uint8).astype(np.uint64)
    up |= d >> _U(1)
    up &= d
    up &= _U(1)
    d >>= _U(1)
    return d, up


def _fmt17_fields(x) -> np.ndarray:
    """The text of :func:`fmt17` for each value, as NUL-interleaved bytes.

    Returns a ``(n, 24)`` uint8 array; deleting the NUL bytes of row ``i``
    leaves exactly ``fmt17(x[i]).encode()``.  Values with
    ``1e-10 <= |x| < 1e15`` are formatted by exact integer arithmetic:
    ``D = round_half_even(|x| 10**(16-k))`` with ``10**16 <= D < 10**17``
    gives the 17 digits and ``k`` the decimal exponent, laid out as
    ``%.17g`` does (fixed notation for ``-4 <= k < 17``, exponent notation
    below, trailing zeros and a bare point dropped, ``-`` on negative
    values).  Zeros, subnormals and every value outside that range go
    through :func:`fmt17` one at a time.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    a = np.abs(x)
    exact = (a >= 1e-10) & (a < 1e15)
    a[~exact] = 1.0
    bits = a.view(np.uint64)
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.int64)
    d, up = _scaled_digits(bits, k)
    # log10 can be off by one next to a power of ten: check the unrounded D
    for off, step in ((d < _U(10**16), -1), (d >= _U(10**17), 1)):
        i = np.flatnonzero(off)
        if i.size:
            k[i] += step
            d[i], up[i] = _scaled_digits(bits[i], k[i])
    # Rounding never carries D up to 10**17 here: that needs |x| within
    # 5e-18 (relative) below a power of ten, and below each of 1e-9..1e15
    # the nearest double is at least 4.5e-17 away.
    d += up

    # Digits: d0 alone, then two 8-digit words w[0] (d1-d8), w[1] (d9-d16),
    # split 4+4, 2+2, 1+1 inside the word by multiply-shift division.
    w = np.empty((2, n), np.uint64)
    hi = d // _U(10**8)
    np.multiply(hi, _U(10**8), out=w[1])
    np.subtract(d, w[1], out=w[1])
    d0 = hi // _U(10**8)
    np.multiply(d0, _U(10**8), out=w[0])
    np.subtract(hi, w[0], out=w[0])
    q = w // _U(10_000)
    w -= q * _U(10_000)
    w <<= _U(32)
    w |= q
    q = w * _U(10486)  # (v * 10486) >> 20 == v // 100 for v < 10**4
    q >>= _U(20)
    q &= _U(0x0000_007F_0000_007F)
    w -= q * _U(100)
    w <<= _U(16)
    w |= q
    q = w * _U(103)  # (v * 103) >> 10 == v // 10 for v < 100
    q >>= _U(10)
    q &= _U(0x000F_000F_000F_000F)
    w -= q * _U(10)
    w <<= _U(8)
    w |= q
    # Trailing zero digits stay NUL, every other digit becomes ASCII: flag
    # the nonzero bytes, then every byte below the last flagged one.
    f = w + _U(0x7F7F_7F7F_7F7F_7F7F)
    f &= _U(0x8080_8080_8080_8080)
    f |= f >> _U(8)
    f |= f >> _U(16)
    f |= f >> _U(32)
    f[0] |= (f[1] & _U(0x80)) * _U(0x0101_0101_0101_0101)
    f >>= _U(7)
    f *= _U(0x30)
    w |= f

    # Layout of the 24 bytes: "-" or NUL at byte 0.  Digit i goes to byte
    # 1 + i + m, where m = -k zeros precede the digits in 0.000ddd form
    # (-4 <= k < 0) and m = 0 otherwise; bytes 1..m hold "0".  Bytes below
    # j = max(k, 0) + 2 are the integer part (NUL digits restored to "0");
    # the rest moves up one byte behind a point at byte j, which is dropped
    # if nothing follows it.  Exponent notation (k < -4) is j = 2 plus
    # "e-XX" at bytes 19-22.
    m = np.minimum(-k, 4)
    np.maximum(m, 0, out=m)
    m[k < -4] = 0
    sm = m.view(np.uint64)
    sm <<= _U(3)
    j8 = np.maximum(k, 0).view(np.uint64)
    j8 += _U(2)
    j8 <<= _U(3)
    s0 = w[0] << _U(16)
    d0 += _U(ord("0"))
    s0 |= d0 << _U(8)
    s1 = w[0] >> _U(48)
    s1 |= w[1] << _U(16)
    l2 = w[1] >> _U(48)
    l2 <<= sm
    l2 |= s1 >> (_U(64) - sm)
    l1 = s1 << sm
    l1 |= s0 >> (_U(64) - sm)
    l0 = s0 << sm
    sm += _U(8)
    zeros = _ONES << sm
    np.bitwise_not(zeros, out=zeros)
    zeros &= _ASCII0_AFTER_SIGN
    l0 |= zeros
    int0 = _ONES << j8
    np.bitwise_not(int0, out=int0)
    int1 = _ONES >> (_U(128) - j8)
    i0 = l0 & int0
    i1 = l1 & int1
    l0 ^= i0
    l1 ^= i1
    # the point's shift, pushed past every word when no digit follows it
    point = l0 | l1
    point |= l2
    j8 += (point == 0).view(np.uint8).astype(np.uint64) << _U(8)

    out = np.empty((n, 3), "<u8")  # byte 0 of each word first, on any host
    o = l0 << _U(8)
    o |= i0
    o |= int0 & _ASCII0_AFTER_SIGN
    o |= _U(ord(".")) << j8
    o |= (x.view(np.uint64) >> _U(63)) * _U(ord("-"))
    out[:, 0] = o
    o = l1 << _U(8)
    o |= l0 >> _U(56)
    o |= i1
    o |= int1 & _ASCII0
    j8 -= _U(64)  # wraps below zero into a shift past the word
    o |= _U(ord(".")) << j8
    out[:, 1] = o
    o = l2 << _U(8)
    o |= l1 >> _U(56)
    j8 -= _U(64)
    o |= _U(ord(".")) << j8
    i = np.flatnonzero(k < -4)
    o[i] |= _EXP_SUFFIX.take(k[i] + 10)
    out[:, 2] = o
    fields = out.view(np.uint8)
    for i in np.flatnonzero(~exact):
        text = fmt17(x[i]).encode()
        fields[i] = 0
        fields[i, :len(text)] = np.frombuffer(text, np.uint8)
    return fields


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", (int, float): "a number"}


def typed(value, kind, name: str):
    """``value`` if it is a ``kind`` of ``_KINDS`` and no ``bool``, else ``ValueError`` naming ``name``."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r:.40}")


def encode_f64(arr: np.ndarray) -> str:
    """Base64 encoding of a float64 array in little-endian byte order."""
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def decode_f64(text: str, shape=None) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(text), dtype="<f8").astype(np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    return arr


def frozen_array(arr, dtype=np.float64) -> np.ndarray:
    """Copy ``arr`` into a contiguous read-only ndarray.

    Always copies so the caller's array never gets frozen in place.
    """
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out
