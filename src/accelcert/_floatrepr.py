"""``float.__repr__`` over whole float64 arrays.

``reprs(values)`` returns ``list(map(float.__repr__, values.tolist()))``
without a Python call per normal value. The shortest round-trip digits of a
normal float come from Giulietti's Schubfach ("The Schubfach way to render
doubles", 2020), which needs no bignums: one 126-bit power of ten per decimal
exponent and 64 x 64 -> 128-bit high products, done here on uint64 arrays in
32-bit limbs. The digits are then laid out as repr lays them out: positional
for -4 < decpt <= 16 (``.0`` on integers), else ``d.ddde+XX``. Zero,
subnormal, infinite and NaN values, which the kernel leaves out, are spelled
by a per-value callable into the same rows.

Every token is a row of a zero-filled uint8 matrix; deleting the zeros and
splitting at the newlines gives the tokens. Values are spelled ``BLOCK`` at
a time, which bounds the kernel's temporaries whatever the array's size. Every
uint64 operation pairs uint64 operands, so no numpy version promotes one to
float64.
"""

from __future__ import annotations

import numpy as np

#: Values spelled per pass of the kernel.
BLOCK = 4096

_U = np.uint64
_ONE, _TWO, _TEN = _U(1), _U(2), _U(10)
_SHIFT32, _SHIFT52, _SHIFT63 = _U(32), _U(52), _U(63)
_LOW32 = _U(0xFFFFFFFF)
_LOW52 = _U((1 << 52) - 1)
_LOW63 = _U((1 << 63) - 1)
_HIDDEN = _U(1 << 52)

#: The decimal exponents of normal floats' digits, K_MIN..K_MAX.
_K_MIN, _K_MAX = -324, 292


def _flog10_pow2(q):
    """floor(log10(2**q)) for |q| <= 1100, on ints or int64 arrays."""
    return (q * 661971961083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 * 2**q)) for |q| <= 1100."""
    return (q * 661971961083 - 274743187321) >> 41


def _flog2_pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _pow10_table():
    """g_k = floor(10**-k * 2**-r) + 1 with 2**125 <= g_k < 2**126, for each
    k in K_MIN..K_MAX, as its upper and lower 63-bit halves."""
    high, low = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        r = _flog2_pow10(-k) - 125
        num, den = (num << -r, den) if r <= 0 else (num, den << r)
        g = num // den + 1
        high.append(g >> 63)
        low.append(g & ((1 << 63) - 1))
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


_G_HIGH, _G_LOW = _pow10_table()


def _limbs(a):
    """The upper and lower 32-bit halves of uint64 values."""
    return a >> _SHIFT32, a & _LOW32


def _mul_high(a, b):
    """The upper 64 bits of the 128-bit products of uint64 values, each given
    as its ``_limbs``."""
    (a1, a0), (b1, b0) = a, b
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _round_to_odd(g, cp):
    """Schubfach's rop: floor(g * cp / 2**127) with its last bit set when
    the bits below are not zero, for g = g_high * 2**63 + g_low and
    cp < 2**63, g given as (g_high, ``_limbs`` of g_high, ``_limbs`` of g_low)."""
    g_high, high_limbs, low_limbs = g
    cp_limbs = _limbs(cp)
    z = ((g_high * cp) >> _ONE) + _mul_high(low_limbs, cp_limbs)
    vb = _mul_high(high_limbs, cp_limbs) + (z >> _SHIFT63)
    return vb | (((z & _LOW63) + _LOW63) >> _SHIFT63)


def _shortest(bits):
    """(d, k) with d * 10**k the shortest decimal, nearest on ties, that rounds
    to each positive normal float of ``bits`` (uint64); d may end in zeros."""
    t = bits & _LOW52
    exponent = (bits >> _SHIFT52).astype(np.int64)
    q = exponent - 1075
    c = t | _HIDDEN
    # The interval below a power of two is half as wide as the one above.
    closer = (t == _U(0)) & (exponent != 1)
    k = np.where(closer, _flog10_three_quarters_pow2(q), _flog10_pow2(q))
    h = (q + _flog2_pow10(-k) + 2).astype(np.uint64)
    g_high = _G_HIGH[k - _K_MIN]
    g = (g_high, _limbs(g_high), _limbs(_G_LOW[k - _K_MIN]))
    cb = c << _TWO
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _TWO + closer.astype(np.uint64)) << h)
    vbr = _round_to_odd(g, (cb + _TWO) << h)
    # An odd c's interval leaves its bounds out.
    odd = c & _ONE
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _TWO
    # One digit fewer: 10 * floor(s / 10) or the next multiple of 10, if
    # exactly one of them lies in the interval.
    sp = s // _TEN * _TEN
    up_in, wp_in = lower <= sp << _TWO, (sp + _TEN) << _TWO <= upper
    u_in, w_in = lower <= s << _TWO, (s + _ONE) << _TWO <= upper
    mid = (s << _TWO) + _TWO
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & _ONE == _ONE)))
    d = np.where(up_in != wp_in, sp + wp_in * _TEN, s + up.astype(np.uint64))
    return d, k


#: Columns of the per-value character pool that the templates index.
_DIGITS = 17
_ZERO, _DOT, _E, _EXP_SIGN, _EXP_DIGITS, _NUL, _NEWLINE, _SIGN = 17, 18, 19, 20, 21, 24, 25, 26
_POOL = 27
#: Token width: "-d.dddddddddddddddde-308" and the newline.
_WIDTH = 25
#: Decimal point positions written positionally, as repr does.
_DECPT_MIN, _DECPT_MAX = -3, 16
_E4, _E8, _E16 = _U(10 ** 4), _U(10 ** 8), _U(10 ** 16)

#: The four digit characters of 0..9999, one uint32 each.
_QUADS = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48).view(np.uint32).ravel()


def _templates() -> np.ndarray:
    """Pool columns of each layout: positional ones for every decpt and digit
    count, then the exponent ones for every digit count, 2 or 3 exponent
    digits."""
    rows = []

    def add(chars):
        rows.append([_SIGN, *chars] + [_NUL] * (_WIDTH - 2 - len(chars)) + [_NEWLINE])

    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        for nd in range(1, _DIGITS + 1):
            digits = list(range(nd))
            if decpt <= 0:
                add([_ZERO, _DOT] + [_ZERO] * -decpt + digits)
            elif decpt < nd:
                add(digits[:decpt] + [_DOT] + digits[decpt:])
            else:
                add(digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO])
    for nd in range(1, _DIGITS + 1):
        mantissa = [0] + ([_DOT, *range(1, nd)] if nd > 1 else [])
        for wide in (False, True):
            add(mantissa + [_E, _EXP_SIGN] + list(range(_EXP_DIGITS + (not wide), _EXP_DIGITS + 3)))
    return np.array(rows, dtype=np.intp)


_TEMPLATES = _templates()
#: The pool columns after the digits, before the exponent and sign are set.
_POOL_TAIL = np.frombuffer(b"0.e+000\0\n\0", dtype=np.uint8)
#: The sign and three digits of each exponent in -EXP_MAX..EXP_MAX.
_EXP_MAX = 400
_EXPONENTS = np.column_stack([
    np.repeat(np.frombuffer(b"-+", dtype=np.uint8), [_EXP_MAX, _EXP_MAX + 1]),
    _QUADS[np.abs(np.arange(-_EXP_MAX, _EXP_MAX + 1))].view(np.uint8).reshape(-1, 4)[:, 1:],
])
_EXP_TEMPLATES = (_DECPT_MAX - _DECPT_MIN + 1) * _DIGITS


def _digit_chars(d) -> np.ndarray:
    """The 17 digit characters of each d in [10**16, 10**17), uint8 rows."""
    first = d // _E16
    rest = d - first * _E16
    high = rest // _E8
    low = rest - high * _E8
    quads = np.empty((len(d), 4), dtype=np.uint64)
    quads[:, 0] = high // _E4
    quads[:, 1] = high - quads[:, 0] * _E4
    quads[:, 2] = low // _E4
    quads[:, 3] = low - quads[:, 2] * _E4
    chars = np.empty((len(d), _DIGITS), dtype=np.uint8)
    chars[:, 0] = first + _U(48)
    chars[:, 1:] = _QUADS[quads].view(np.uint8)
    return chars


def _spell_normal(bits) -> np.ndarray:
    """The repr rows of normal floats given as uint64 ``bits``."""
    n = len(bits)
    d, k = _shortest(bits & _LOW63)
    short = d < _E16
    pool = np.empty((n, _POOL), dtype=np.uint8)
    pool[:, :_DIGITS] = _digit_chars(np.where(short, d * _TEN, d))
    nd = _DIGITS - np.argmax(pool[:, _DIGITS - 1::-1] != 48, axis=1)
    decpt = k + _DIGITS - short
    exponent = decpt - 1
    positional = (decpt >= _DECPT_MIN) & (decpt <= _DECPT_MAX)
    layout = np.where(positional, (decpt - _DECPT_MIN) * _DIGITS + nd - 1,
                      _EXP_TEMPLATES + 2 * (nd - 1) + (np.abs(exponent) >= 100))
    pool[:, _ZERO:] = _POOL_TAIL
    pool[:, _EXP_SIGN:_NUL] = _EXPONENTS[exponent + _EXP_MAX]
    pool[:, _SIGN] = (bits >> _SHIFT63).astype(np.uint8) * 45
    index = _TEMPLATES[layout]
    index += np.arange(0, n * _POOL, _POOL)[:, None]
    return pool.ravel().take(index)


def reprs(values: np.ndarray, special=float.__repr__) -> list[str]:
    """The tokens of a 1-d float64 array: float.__repr__ of each normal value,
    and ``special`` (a function of one float returning at most 24 ASCII
    characters) of each zero, subnormal, infinite or NaN value."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    tokens = []
    for start in range(0, len(bits), BLOCK):
        block = bits[start:start + BLOCK]
        exponent = (block >> _SHIFT52) & _U(0x7FF)
        normal = (exponent != _U(0)) & (exponent != _U(0x7FF))
        rows = np.zeros((len(block), _WIDTH), dtype=np.uint8)
        rows[normal] = _spell_normal(block[normal])
        others = block[~normal].view(np.float64).tolist()
        if others:
            spelled = np.array([special(v) + "\n" for v in others], dtype=f"S{_WIDTH}")
            rows[~normal] = spelled.view(np.uint8).reshape(-1, _WIDTH)
        tokens += rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return tokens
