"""Reference computations for the benchmark's output checks.

Written as plain loops over the generated input arrays; none of it calls
the code that the benchmark times.  Partition suprema are taken from
``roughpaths.oracle`` (full enumeration), which shares no code with the
dynamic programs either.
"""

from __future__ import annotations

import math

import numpy as np


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def holder_ref(times, values, delta, lo, hi) -> float:
    """max over grid pairs lo <= i < j <= hi of |f_j - f_i| / (t_j - t_i)^delta."""
    best = 0.0
    for i in range(lo, hi):
        for j in range(i + 1, hi + 1):
            d = math.sqrt(sum((values[j][c] - values[i][c]) ** 2
                              for c in range(len(values[i]))))
            best = max(best, d / (times[j] - times[i]) ** delta)
    return best


def frac_sobolev_ref(times, values, delta, p, lo, hi) -> float:
    """( 2 * sum_{lo<=i<j<=hi} |f_j - f_i|^p / (t_j - t_i)^(1 + delta p) * mesh^2 )^(1/p)."""
    mesh = (times[hi] - times[lo]) / (hi - lo)
    total = 0.0
    for i in range(lo, hi):
        for j in range(i + 1, hi + 1):
            d = math.sqrt(sum((values[j][c] - values[i][c]) ** 2
                              for c in range(len(values[i]))))
            total += d ** p / (times[j] - times[i]) ** (1.0 + delta * p)
    return (2.0 * total * mesh * mesh) ** (1.0 / p)


def field_value(const, lin, quad, y):
    """V_i(y) = const[i] + lin[i] y + quad[i](y, y), one row per driver component."""
    n, m = const.shape
    out = np.empty((n, m))
    for i in range(n):
        for a in range(m):
            acc = const[i, a]
            for b in range(m):
                acc += lin[i, a, b] * y[b]
                for c in range(m):
                    acc += quad[i, a, b, c] * y[b] * y[c]
            out[i, a] = acc
    return out


def euler_ref(const, lin, quad, y0, values, substeps):
    """Left-point Euler with ``substeps`` equal parts per driver increment."""
    y = np.array(y0, dtype=float)
    out = [y.copy()]
    for j in range(len(values) - 1):
        dx = (values[j + 1] - values[j]) / substeps
        for _ in range(substeps):
            v = field_value(const, lin, quad, y)
            y = y + sum(v[i] * dx[i] for i in range(len(dx)))
            out.append(y.copy())
    return np.array(out)


def rotation_euler_bound(y0, increments, omega) -> float:
    """Error bound of the depth-3 Euler scheme for dY = omega J Y dX, X 1-D.

    With J skew-symmetric every step multiplies by P(omega dx) = 1 + A + A^2/2
    + A^3/6 (A = omega J dx) in place of exp(A).  Both are normal, commute and
    have norm <= 1 while |omega dx|^2 <= 3, so the global error is at most
    |y0| * sum |exp(A) - P(A)| <= |y0| * sum (omega |dx|)^4 / 24.
    """
    theta = np.abs(omega * np.asarray(increments))
    if np.any(theta * theta > 3.0):
        raise ValueError("steps too large for the contraction bound")
    return float(np.linalg.norm(y0) * np.sum(theta**4) / 24.0)
