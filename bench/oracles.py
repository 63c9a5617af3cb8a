"""Reference computations built from the raw distance table and weights.

Nothing here uses the program's ball family or kernels: every ball is
enumerated again from one row of the distance table, as the set of points
within one of that row's distinct distances.  numpy only.
"""

from __future__ import annotations

import numpy as np


def _ball_masks(row: np.ndarray) -> np.ndarray:
    """(R, N) membership of the closed balls at the row's distinct distances."""
    radii = np.unique(row)
    return row[None, :] <= radii[:, None]


def grand_morrey(dist, weight, samples, p: float, eps, lam_eff, phi_w) -> np.ndarray:
    """Grand Morrey norm of each sample by the definition.

    For every eps, center and distinct radius: phi_w[e] times
    (sum_B |f|^(p-eps) w / mu(B)^lam_eff[e])^(1/(p-eps)); the maximum over
    all three.  `phi_w[e]` is phi(eps)^(1/(p-eps)).  Returns one value per
    sample.  A ball is a prefix of the row sorted by distance (an unstable
    sort, so tied points are summed in another order than the program's),
    cut at the last point of each distinct distance.
    """
    f = np.abs(np.atleast_2d(np.asarray(samples, dtype=float)))
    eps = np.asarray(eps, dtype=float)
    pe = p - eps
    lam_eff = np.asarray(lam_eff, dtype=float)
    k, e = f.shape[0], eps.size
    # (N, k*E) integrands, one column per (sample, eps)
    integrand = (f[:, :, None] ** pe[None, None, :]).transpose(1, 0, 2).reshape(f.shape[1], k * e)
    integrand = integrand * weight[:, None]
    best = np.zeros((k, e))
    for c in range(dist.shape[0]):
        order = np.argsort(dist[c], kind="quicksort")
        d = dist[c][order]
        ends = np.flatnonzero(np.append(d[1:] != d[:-1], True))
        mu = np.cumsum(weight[order])[ends]
        sums = np.cumsum(integrand[order], axis=0)[ends].reshape(-1, k, e)
        vals = sums / mu[:, None, None] ** lam_eff[None, None, :]
        best = np.maximum(best, vals.max(axis=0))
    return (np.asarray(phi_w)[None, :] * best ** (1.0 / pe[None, :])).max(axis=1)


def sharp_maximal_at(dist, weight, f, centers) -> np.ndarray:
    """f#(c) = max over balls at c of avg_B |f - f_B|, one ball at a time."""
    f = np.asarray(f, dtype=float)
    out = np.empty(len(centers))
    for i, c in enumerate(centers):
        best = 0.0
        for members in _ball_masks(dist[c]):
            wb, fb = weight[members], f[members]
            mu = wb.sum()
            mean = (fb * wb).sum() / mu
            best = max(best, float((np.abs(fb - mean) * wb).sum() / mu))
        out[i] = best
    return out


def _center_min_oscillation(row, weight, f):
    """min over constants t of avg_B |f - t| for every ball at one center.

    The objective is convex and piecewise linear with breaks at the member
    values, so its minimum over t is its minimum over the members' values;
    every candidate is tried.
    """
    order = np.argsort(row, kind="stable")
    d, fv, wv = row[order], f[order], weight[order]
    ends = np.flatnonzero(np.append(d[1:] != d[:-1], True))
    # cost[j, i] = w_i |f_i - f_j|: candidate t = f_j, member i
    cost = np.cumsum(wv[None, :] * np.abs(fv[None, :] - fv[:, None]), axis=1)[:, ends]
    pos = np.arange(d.size)
    cost[pos[:, None] > ends[None, :]] = np.inf  # the candidate must lie in the ball
    return cost.min(axis=0) / np.cumsum(wv)[ends], order, ends


def bmo_inf(dist, weight, f) -> float:
    """max over all balls of min_t avg_B |f - t|."""
    f = np.asarray(f, dtype=float)
    return max(float(_center_min_oscillation(dist[c], weight, f)[0].max())
               for c in range(dist.shape[0]))


def weighted_median_gap(dist, weight, f, balls) -> float:
    """Largest gap between avg_B |f - m| at the lower weighted median m and
    the candidate-search minimum, over the given (center, rank) balls."""
    f = np.asarray(f, dtype=float)
    gap = 0.0
    for c, k in balls:
        mins, order, ends = _center_min_oscillation(dist[c], weight, f)
        k = min(k, ends.size - 1)
        members = order[: ends[k] + 1]
        fv, wv = f[members], weight[members]
        srt = np.argsort(fv, kind="stable")
        cw = np.cumsum(wv[srt])
        med = fv[srt][np.searchsorted(cw, 0.5 * cw[-1])]
        dev = float((np.abs(fv - med) * wv).sum() / wv.sum())
        gap = max(gap, abs(dev - mins[k]) / max(abs(mins[k]), 1e-300))
    return gap


def self_test() -> list[str]:
    """Hand-computed values on the two-atom space and the three-point grid.

    Two atoms at distance 1, weights 1/2, b = (0, 1): every oscillation of
    the full ball is 1/2.  Three points at 0, 1/2, 1 with weights 1/3 and
    f = (1, 0, 0): Morrey (p = 1, lambda = 1/2) is 3^(-1/2), f# is
    (1/2, 4/9, 4/9) and the BMO-inf norm is 1/2.  Returns the failures.
    """
    two_d = np.array([[0.0, 1.0], [1.0, 0.0]])
    two_w = np.array([0.5, 0.5])
    x = np.array([0.0, 0.5, 1.0])
    g3_d = np.abs(x[:, None] - x[None, :])
    g3_w = np.full(3, 1.0 / 3.0)
    spike = np.array([1.0, 0.0, 0.0])
    cases = {
        "two-atom sharp maximal": (sharp_maximal_at(two_d, two_w, [0.0, 1.0], [0, 1]),
                                   [0.5, 0.5]),
        "two-atom BMO-inf": (bmo_inf(two_d, two_w, [0.0, 1.0]), 0.5),
        "three-point Morrey": (grand_morrey(g3_d, g3_w, spike, 1.0, [0.0], [0.5], [1.0])[0],
                               3.0 ** -0.5),
        "three-point sharp maximal": (sharp_maximal_at(g3_d, g3_w, spike, [0, 1, 2]),
                                      [0.5, 4.0 / 9.0, 4.0 / 9.0]),
        "three-point BMO-inf": (bmo_inf(g3_d, g3_w, spike), 0.5),
        "three-point weighted median": (weighted_median_gap(g3_d, g3_w, spike,
                                                            [(0, 1), (0, 2), (1, 1)]), 0.0),
    }
    return [name for name, (got, want) in cases.items()
            if not np.allclose(got, want, rtol=0.0, atol=1e-12)]
