"""Test-side references for ``kfpca.core._local_linear_matrix``.

The library builds the Gaussian local-linear smoother in the factored form
S = diag(a) K - diag(b) (K o dt), with a = s2/denom and b = s1/denom.  Two
references check it here:

- ``numerator_local_linear_matrix`` is the same closed form in the order
  the library once used, S = K o (s2 - dt s1) / denom, with its subnormal
  entries set to zero afterwards.  The tests require both forms to pick
  the same GCV bandwidth for every row and to give the same fitted values
  to rounding, and the factored form to be about as accurate.
- ``longdouble_local_linear_matrix`` is the closed form in ``np.longdouble``
  (64-bit significand on x86-64), the accuracy oracle for both.
"""

import numpy as np


def numerator_local_linear_matrix(points, bandwidth):
    """The smoother as K o (s2 - dt s1) / denom, subnormal entries zeroed."""
    tiny = np.finfo(float).tiny
    dt = points[None, :] - points[:, None]
    k = np.divide(dt, bandwidth)
    np.multiply(k, k, out=k)
    np.multiply(k, -0.5, out=k)
    np.exp(k, out=k)
    s0 = k.sum(axis=1)
    s = np.multiply(k, dt)
    s1 = s.sum(axis=1)
    np.multiply(s, dt, out=s)
    s2 = s.sum(axis=1)
    np.multiply(dt, s1[:, None], out=s)
    np.subtract(s2[:, None], s, out=s)
    np.multiply(k, s, out=s)
    denom = s0 * s2 - s1 * s1
    bad = denom <= tiny * np.maximum(s0 * s2, 1.0)
    if np.any(bad):
        s[bad] = k[bad]
        denom = np.where(bad, s0, denom)
    np.divide(s, denom[:, None], out=s)
    s[np.abs(s, out=k) < tiny] = 0.0
    return s


def longdouble_local_linear_matrix(points, bandwidth):
    """The smoother in extended precision from the same double inputs.

    Its exponent range reaches far below the double's, so no weight
    underflows here.  Rows the double closed form treats as degenerate are
    not handled; the property tests draw bandwidths from the GCV range,
    where none is."""
    p = np.asarray(points, dtype=np.longdouble)
    h = np.longdouble(bandwidth)
    dt = p[None, :] - p[:, None]
    k = np.exp(-((dt / h) ** 2) / 2)
    s0 = k.sum(axis=1)
    s1 = (k * dt).sum(axis=1)
    s2 = (k * dt * dt).sum(axis=1)
    denom = s0 * s2 - s1 * s1
    return k * (s2[:, None] - dt * s1[:, None]) / denom[:, None]
