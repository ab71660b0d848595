"""Special functions on the positive real axis.

Provides the natural log of the gamma function, the digamma function
``psi(x) = d/dx ln Gamma(x)``, its functional inverse, and the log of the
multivariate Beta function.  These are the only transcendental ingredients
needed for Dirichlet densities, closed-form evidential losses, and the
fixed-point concentration update ``alpha_k <- psi^-1(psi(alpha_0) + mean
log-probability)``.

``log_gamma``, ``digamma``, ``inverse_digamma`` and ``_trigamma`` take a
float or an array and run one elementwise implementation, so each element
of an array result has the bits of the scalar call.  All functions are pure
and raise ``ValueError`` outside their documented domains.  Accuracy
targets: 1e-12 relative for ``log_gamma`` and 1e-10 absolute for
``digamma`` on ``[1e-6, 1e8]``.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "digamma",
    "inverse_digamma",
    "log_gamma",
    "log_multivariate_beta",
]

EULER_GAMMA = 0.5772156649015329

_MAX_FINITE = math.nextafter(math.inf, 0.0)

# Taylor coefficients of ln Gamma(1 + t) past the linear term:
# ln Gamma(1 + t) = -EULER_GAMMA*t + sum_{n>=2} (-1)^n zeta(n) t^n / n.
_LGAMMA_TAYLOR_AT_1 = (
    0.82246703342411322,
    -0.40068563438653143,
    0.27058080842778455,
    -0.20738555102867399,
    0.16955717699740819,
    -0.14404989676884612,
    0.12550966952474304,
    -0.11133426586956469,
    0.10009945751278181,
    -0.090954017145829042,
    0.083353840546109004,
    -0.076932516411352191,
    0.071432946295361336,
    -0.066668705882420468,
    0.062500955141213041,
    -0.058823978658684582,
    0.055555767627403611,
    -0.052631679379616661,
    0.050000047698101694,
    -0.047619070330142228,
    0.045454556293204669,
    -0.043478266053040259,
    0.041666669150341210,
    -0.040000001192140141,
    0.038461539034675186,
)

# ln Gamma(2 + t) = (1-EULER_GAMMA)*t + sum_{n>=2} (-1)^n (zeta(n)-1) t^n / n.
_LGAMMA_TAYLOR_AT_2 = (
    0.32246703342411322,
    -0.067352301053198095,
    0.020580808427784548,
    -0.0073855510286739853,
    0.0028905103307415233,
    -0.0011927539117032610,
    0.00050966952474304242,
    -0.00022315475845357938,
    9.9457512781808534e-5,
    -4.4926236738133142e-5,
    2.0507212775670692e-5,
    -9.4394882752683959e-6,
    4.3748667899074878e-6,
    -2.0392157538013662e-6,
    9.5514121304074198e-7,
    -4.4924691987645660e-7,
    2.1207184805554666e-7,
    -1.0043224823968100e-7,
    4.7698101693639806e-8,
    -2.2711094608943165e-8,
    1.0838659214896954e-8,
    -5.1834750419700467e-9,
    2.4836745438024783e-9,
    -1.1921401405860912e-9,
    5.7313672416788620e-10,
)

# Both windows are well inside the series' radius of convergence; at
# half-width 0.2 the truncated tails are below 1e-18 relative.
_WINDOW_HALF_WIDTH = 0.2
_LGAMMA_WINDOWS = (
    (1.0, -EULER_GAMMA, _LGAMMA_TAYLOR_AT_1),
    (2.0, 1.0 - EULER_GAMMA, _LGAMMA_TAYLOR_AT_2),
)

# Correctly rounded ln((n-1)!) at index n for small integer arguments (index
# 0 is unused).  math.log on an exact Python int avoids the double rounding
# that the general path incurs, so integer inputs reproduce log factorials to
# the last bit.
_INT_TABLE_LIMIT = 25
_LGAMMA_AT_INT = np.array([math.nan] + [math.log(math.factorial(n - 1)) for n in range(1, _INT_TABLE_LIMIT + 1)])


def _positive(x, op: str):
    # The same check for a float, or on every element of an array.
    if not isinstance(x, np.ndarray):
        x = float(x)
        if not math.isfinite(x) or x <= 0.0:
            raise ValueError(f"{op} requires a finite argument > 0, got {x!r}")
        return x
    x = np.asarray(x, dtype=np.float64)
    bad = x[~((x > 0.0) & (x <= _MAX_FINITE))]
    if bad.size:
        raise ValueError(f"{op} requires finite arguments > 0, got {float(bad[0])!r}")
    return x


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _reciprocal_parts(x):
    # 1/x as a rounded head plus its residual, via an exact product of the
    # head with x, so the shift stays accurate for tiny x.  The factors are
    # split at scales s and 1/s, which cancel exactly.  s is 2**28 for x > 1
    # (2**-28 vanishes beside it in the sum) and 2**-28 otherwise, so the
    # head's split cannot overflow when 1/x nears the largest float.
    hi = 1.0 / x
    scale = 2.0**-28 + (x > 1.0) * 2.0**28
    hs = hi * scale
    xs = x / scale
    ah = hs * _SPLITTER
    ah = ah - (ah - hs)
    al = hs - ah
    bh = xs * _SPLITTER
    bh = bh - (bh - xs)
    bl = xs - bh
    p = hs * xs
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    lo = ((1.0 - p) - err) / x
    return hi, lo


def _taylor_window(t, linear: float, coeffs: tuple[float, ...]):
    # Factoring out t keeps the result accurate in relative terms even as
    # the value itself crosses zero at the window center.
    tail = 0.0
    for c in reversed(coeffs):
        tail = t * (c + tail)
    return t * (linear + tail)


def _lgamma(x: float) -> float:
    # math.lgamma, overflowing to inf (past about 2.6e305) instead of raising.
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def log_gamma(x):
    """Natural log of the gamma function for x > 0, elementwise on an array.

    Integers up to 25 come from a table of log factorials.  The zeros of
    ln Gamma at x = 1 and x = 2 are covered by dedicated Taylor expansions
    so the result stays accurate in relative terms there; elsewhere the
    platform implementation already meets the target and is used directly.
    A result past the largest float is inf.
    """
    x = _positive(x, "log_gamma")
    v = np.atleast_1d(x)
    out = np.empty(v.shape)
    general = np.ones(v.shape, dtype=bool)
    for center, linear, coeffs in _LGAMMA_WINDOWS:
        near = np.abs(v - center) <= _WINDOW_HALF_WIDTH
        if near.any():
            out[near] = _taylor_window(v[near] - center, linear, coeffs)
            general &= ~near
    exact = (v <= _INT_TABLE_LIMIT) & (v == np.floor(v))
    out[exact] = _LGAMMA_AT_INT[v[exact].astype(np.intp)]
    general &= ~exact
    out[general] = list(map(_lgamma, v[general].tolist()))
    return out.reshape(x.shape) if isinstance(x, np.ndarray) else float(out[0])


def digamma(x):
    """Digamma function psi(x) for x > 0, elementwise on an array.

    Shifts every argument by exactly 6 with psi(x) = psi(x + 6) -
    sum_{j<6} 1/(x + j), then uses the asymptotic expansion at x + 6 with
    Bernoulli-number terms through x^-12.  The 1/x term is carried as a
    head and a residual, and the terms are added smallest first, so small
    arguments (where psi ~ -1/x diverges) keep full absolute accuracy.
    """
    x = _positive(x, "digamma")
    hi, lo = _reciprocal_parts(x)
    inv = 1.0 / (x + 6.0)
    u = inv * inv
    tail = u * (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (
        1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0))))))
    s = (lo + tail) + 0.5 * inv
    for j in (5.0, 4.0, 3.0, 2.0, 1.0):
        s = s + 1.0 / (x + j)
    psi = (np.log(x + 6.0) - s) - hi
    return psi if isinstance(psi, np.ndarray) else float(psi)


def _trigamma(x):
    # psi'(x) = psi'(x + 6) + sum_{j<6} 1/(x + j)^2, elementwise, with the
    # asymptotic series at x + 6.  Squaring reciprocals lets large arguments
    # underflow quietly instead of overflowing.
    x = _positive(x, "trigamma")
    s = 0.0
    for j in (5.0, 4.0, 3.0, 2.0, 1.0):
        r = 1.0 / (x + j)
        s = s + r * r
    inv = 1.0 / (x + 6.0)
    u = inv * inv
    s = s + (inv + 0.5 * u + u * inv * (1.0 / 6.0 - u * (1.0 / 30.0 - u * (
        1.0 / 42.0 - u * (1.0 / 30.0 - u * (5.0 / 66.0))))))
    r = 1.0 / x
    return s + r * r


def inverse_digamma(y):
    """Inverse of digamma: the unique x > 0 with psi(x) = y, elementwise.

    Starts from the piecewise initializer exp(y) + 0.5 for y >= -2.22
    and -1/(y + EULER_GAMMA) below it, then refines with Newton steps
    using the trigamma derivative.  Each element takes at least five
    steps and stops on its own once its step is below 1e-15 relative, or
    after 30; the iteration is quadratically convergent.
    """
    shape = np.shape(y)
    y = np.array(y, dtype=np.float64, ndmin=1)
    if not np.isfinite(y).all():
        raise ValueError(f"inverse_digamma requires finite arguments, got {float(y[~np.isfinite(y)][0])!r}")
    # Overflow is handled: exp is capped (past ~709.8 psi(x) ~ ln x, so the capped
    # start is essentially exact), and a step that overflows maps to the largest double.
    with np.errstate(divide="ignore", over="ignore"):
        x = np.where(y >= -2.22, np.exp(np.minimum(y, 709.0)) + 0.5, -1.0 / (y + EULER_GAMMA))
        live = np.ones(y.shape, dtype=bool)
        for step in range(1, 31):
            xl = x[live]
            delta = (digamma(xl) - y[live]) / _trigamma(xl)
            candidate = xl - delta
            # psi is increasing and concave, so an overshoot below zero is halved.
            fallback = np.where(candidate <= 0.0, 0.5 * xl, _MAX_FINITE)
            xl = np.where((candidate > 0.0) & np.isfinite(candidate), candidate, fallback)
            x[live] = xl
            if step >= 5:
                live[live] = ~(np.abs(delta) <= 1e-15 * xl)
                if not live.any():
                    break
    return float(x[0]) if shape == () else x.reshape(shape)


def log_multivariate_beta(alpha: Iterable[float]) -> float:
    """Log multivariate Beta: sum_k ln Gamma(alpha_k) - ln Gamma(sum_k alpha_k).

    Requires at least two strictly positive components.
    """
    values = np.array([float(a) for a in alpha])
    if values.size < 2:
        raise ValueError("log_multivariate_beta requires at least 2 components")
    values = _positive(values, "log_multivariate_beta")
    return math.fsum(log_gamma(values).tolist()) - log_gamma(math.fsum(values.tolist()))
