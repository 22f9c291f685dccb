"""Adaptive Gauss-Kronrod quadrature.

A 7/15-point Gauss-Kronrod rule on bisected panels, with the QUADPACK-style
scaled error model so that error estimates stay meaningful for integrands of
any magnitude. `adaptive_rows` refines many integrals at once, bisecting
every panel of a row whose error exceeds its share of the row's target,
and serves the M_nu tail and the Mittag-Leffler spectral integral;
`adaptive` is its one-row case and serves the verification oracles.
Improper integrals over [a, inf) are truncated where a supplied (or
probed) tail bound drops below tol/10.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument, QuadratureFailure

# 15-point Kronrod nodes and weights with the embedded 7-point Gauss rule
# (weights from QUADPACK dqk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:7], [0.0], _XGK[6::-1]))
_W15 = np.concatenate((_WGK[:7], [_WGK[7]], _WGK[6::-1]))
_w7 = np.zeros(15)
_w7[1:14:2] = np.concatenate((_WG[:3], [_WG[3]], _WG[2::-1]))
_W7 = _w7
_EPS = float(np.finfo(float).eps)
_ROW_BLOCK = 256  # rows per adaptive_rows pass


def _gk15(y, h):
    """G7/K15 values and error estimates of panels with half-widths h.

    y holds the integrand at the 15 Kronrod nodes of each panel, one panel
    per row. Every weighted sum is a per-row reduction, so a panel's
    result does not depend on the other rows.
    """
    yw = y * _W15
    k15 = h * yw.sum(axis=-1)
    g7 = h * (y * _W7).sum(axis=-1)
    # scale-aware error model (QUADPACK): resasc measures the variation of f
    mean = k15 / (2.0 * h)
    resasc = h * (np.abs(y - mean[..., None]) * _W15).sum(axis=-1)
    diff = np.abs(k15 - g7)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        err = np.where(resasc > 0.0, resasc * np.minimum(
            200.0 * diff / resasc, 1.0) ** 1.5, diff)
    # round-off floor
    resabs = h * np.abs(yw).sum(axis=-1)
    return k15, np.maximum(err, 50.0 * _EPS * resabs)


def kronrod_panel(f, a, b):
    """Integrate f over [a, b] with one G7/K15 panel.

    Returns (value, error_estimate). f must accept an ndarray of abscissae.
    """
    h = 0.5 * (b - a)
    y = np.asarray(f(0.5 * (a + b) + h * _NODES), dtype=float)
    k15, err = _gk15(y, h)
    return float(k15), float(err)


def adaptive(f, a, b, tol=1e-10, rtol=0.0, limit=4000, points=None,
             max_panel_width=None):
    """Adaptive G7/K15 quadrature of f over the finite interval [a, b].

    The one-row case of adaptive_rows. f maps an ndarray of abscissae to
    integrand values. Refinement stops when the summed panel error is
    below max(tol, rtol*|integral|); needing more than `limit` panels
    raises QuadratureFailure. `points` are interior breakpoints of the
    initial subdivision (known scales, neighbourhoods of singular
    endpoints); `max_panel_width` bounds the initial panel width, for
    oscillatory integrands. Returns (value, error_estimate);
    InvalidArgument unless a and b are finite and b > a, and
    QuadratureFailure, naming the first abscissa, where a sample of f is
    not finite.
    """
    if not -math.inf < a < b < math.inf:
        raise InvalidArgument(f"need finite limits with b > a, got a={a}, "
                              f"b={b}")
    edges = [] if points is None else list(points)
    if max_panel_width is not None and max_panel_width > 0:
        n = int(math.ceil((b - a) / max_panel_width))
        edges += list(np.linspace(a, b, min(n, limit // 2) + 1))

    def row(x, rows):
        y = np.asarray(f(x.ravel()), dtype=float)
        if not (finite := np.isfinite(y)).all():
            raise QuadratureFailure(f"integrand not finite at x="
                                    f"{float(x.flat[finite.argmin()])}")
        return y.reshape(x.shape)

    value, error = adaptive_rows(row, a, b, [edges], tol, rtol, limit)
    return float(value[0]), float(error[0])


def adaptive_rows(f, a, b, points, tol=1e-10, rtol=0.0, limit=4000):
    """Adaptive G7/K15 quadrature of many integrands over [a, b] at once.

    Parameters
    ----------
    f : callable
        f(x, rows) returns integrand rows[i] at the abscissae x[i], for an
        (n, 15) array x; every entry must depend only on its own row and
        abscissa.
    points : (n_rows, m) array
        Interior breakpoints of each row's initial subdivision; points
        outside (a, b) and repeated points add no panel.
    tol, rtol, limit : as for adaptive, per row; rtol may hold one
        entry per row.

    Rows are integrated in blocks of _ROW_BLOCK, which bounds the working
    memory; every panel of every unfinished row of a block is evaluated
    in one call of f. A row stops when its summed panel error is below
    max(tol, rtol*|value|); a row that misses it bisects each panel whose
    error exceeds its even share of that target. Results depend only on
    the row itself, not on the block it shares.

    Returns
    -------
    (values, error_estimates) arrays, one entry per row.
    """
    points = np.sort(np.clip(np.asarray(points, dtype=float), a, b), axis=1)
    edges = np.empty((len(points), points.shape[1] + 2))
    edges[:, 0], edges[:, 1:-1], edges[:, -1] = a, points, b
    rtol = np.broadcast_to(rtol, len(edges))
    value = np.empty(len(edges))
    error = np.empty(len(edges))
    for start in range(0, len(edges), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        value[rows], error[rows] = _bisect_rows(
            f, edges[rows], start, tol, rtol[rows], limit)
    return value, error


def _rule_on(f, lo, hi, row, offset):
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    return _gk15(np.asarray(f(x, row + offset), dtype=float), h)


def _bisect_rows(f, edges, offset, tol, rtol, limit):
    """adaptive_rows on one block; rows are numbered from offset in f."""
    n = len(edges)
    row, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    lo, hi = edges[row, col], edges[row, col + 1]
    # one column per panel: lower end, upper end, value, error
    p = np.array((lo, hi, *_rule_on(f, lo, hi, row, offset)))
    value = np.zeros(n)
    error = np.zeros(n)
    while True:
        # bincount adds each row's panels in their stored order
        count = np.bincount(row, minlength=n)
        total = np.bincount(row, p[2], n)
        toterr = np.bincount(row, p[3], n)
        target = np.maximum(tol, rtol * np.abs(total))
        miss = toterr > target
        done = (count > 0) & ~miss
        value[done], error[done] = total[done], toterr[done]
        if not miss.any():
            return value, error
        keep = miss[row]
        p, row = p[:, keep], row[keep]
        split = np.flatnonzero(p[3] > (target / np.maximum(count, 1))[row])
        lo, hi = p[0, split], p[1, split]
        mid = 0.5 * (lo + hi)
        flat = (mid <= lo) | (mid >= hi)
        if flat.any():
            # panels at round-off resolution: accept their estimate
            p[3, split[flat]] = 0.0
            split, lo, hi, mid = (a[~flat] for a in (split, lo, hi, mid))
        grown = count + np.bincount(row[split], minlength=n)
        if (grown > limit).any():
            i = int((grown > limit).argmax())
            raise QuadratureFailure(
                f"panel budget {limit} exhausted (err={toterr[i]:.3e}, "
                f"target={target[i]:.3e})")
        if split.size:
            # each split panel becomes its left half; right halves append
            srow = row[split]
            val, err = _rule_on(f, np.concatenate((lo, mid)),
                                np.concatenate((mid, hi)),
                                np.concatenate((srow, srow)), offset)
            k = split.size
            p[1:, split] = mid, val[:k], err[:k]
            p = np.concatenate((p, (mid, hi, val[k:], err[k:])), axis=1)
            row = np.concatenate((row, srow))


def truncation_radius(tail_bound, a, tol):
    """Smallest probed radius R > a with tail_bound(R) < tol/10.

    tail_bound must be eventually decreasing; the radius doubles from
    max(1, a + 1), and QuadratureFailure is raised once it reaches 1e12.
    """
    r = max(1.0, a + 1.0)
    while r < 1e12:
        if tail_bound(r) < 0.1 * tol:
            return r
        r *= 2.0
    raise QuadratureFailure("no truncation radius below 1e12; "
                            "tail bound too weak for requested tol")


def integrate_to_inf(f, a, tol=1e-10, rtol=0.0, tail_bound=None,
                     points=None, max_panel_width=None):
    """Integrate f over [a, inf) by truncation plus adaptive quadrature.

    tail_bound(r) must bound |f| on [r, inf) by a decaying envelope whose
    integral beyond the cut is negligible at the requested tolerance; when
    omitted, |f| itself is probed at doubling radii (adequate for the
    exponential-or-better decay assumed throughout).
    """
    if not 0.0 < tol < math.inf:  # no tail bound falls below a cut of 0
        raise InvalidArgument(f"tol must be finite and positive, got {tol}")
    if tail_bound is None:
        def tail_bound(r):  # probe the integrand itself
            return float(np.max(np.abs(f(np.array([r, 1.5 * r, 2.0 * r])))))
    cut = truncation_radius(tail_bound, a, tol)
    val, err = adaptive(f, a, cut, tol=tol, rtol=rtol, points=points,
                        max_panel_width=max_panel_width)
    return val, err + 0.1 * tol
