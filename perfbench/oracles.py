"""Reference answers computed without the engine.

Each oracle sees only a workload's input bytes (and, for k-means, its
initial centers) and uses the standard library or numpy — never code
from ``repro`` — so a defect in the engine cannot hide in its own check.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["word_counts", "sorted_records", "check_sorted_permutation",
           "lloyd_step", "centers_match", "KMEANS_ATOL", "TERA_KEY",
           "TERA_RECORD"]

TERA_KEY = 10
TERA_RECORD = 100

#: float32 unit roundoff: the engine assigns points with float32
#: distances, the oracle with float64 ones
_F32_EPS = float(np.finfo(np.float32).eps)
#: center coordinates may differ by float32 rounding of the means alone
KMEANS_ATOL = 1e-3


def word_counts(text: bytes) -> Dict[bytes, int]:
    """Whitespace-token counts of ``text``."""
    return dict(Counter(text.split()))


def sorted_records(data: bytes) -> List[bytes]:
    """The TeraSort records of ``data`` in sorted order."""
    return sorted(data[i:i + TERA_RECORD]
                  for i in range(0, len(data), TERA_RECORD))


def check_sorted_permutation(pairs: Iterable[Tuple[bytes, bytes]],
                             expected: Sequence[bytes]) -> bool:
    """True when ``pairs`` (in output order) are ordered by key and are
    exactly the records of ``expected`` (the sorted input)."""
    out = [k + v for k, v in pairs]
    if len(out) != len(expected):
        return False
    keys = [r[:TERA_KEY] for r in out]
    if any(a > b for a, b in zip(keys, keys[1:])):
        return False
    return sorted(out) == list(expected)


def lloyd_step(points: bytes, dims: int, centers: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """One Lloyd iteration: ``(new centers, tolerance per center)``.

    Distances and means are float64; a center with no points keeps its
    position.  The engine computes ``|p|^2 - 2 p.c + |c|^2`` in float32,
    so a point whose two nearest centers are closer than that rounding
    error may land with either.  Each such point can move either
    center's mean by at most ``|p - c| / (n - k)``; the tolerance adds
    that up, so rounding passes while a wrong assignment does not.
    """
    pts = np.frombuffer(points, dtype=np.float32).reshape(-1, dims)
    pts = pts.astype(np.float64)
    current = np.asarray(centers, dtype=np.float32)
    c = current.astype(np.float64)
    sq, csq = (pts ** 2).sum(axis=1), (c ** 2).sum(axis=1)
    dist = sq[:, None] - 2.0 * (pts @ c.T) + csq[None, :]
    rows = np.arange(len(pts))
    best = np.argmin(dist, axis=1)
    counts = np.bincount(best, minlength=len(c))
    sums = np.stack([np.bincount(best, weights=pts[:, d], minlength=len(c))
                     for d in range(dims)], axis=1)
    nxt = current.copy()
    live = counts > 0
    nxt[live] = (sums[live] / counts[live, None]).astype(np.float32)
    tol = np.full(len(c), KMEANS_ATOL)
    if len(c) > 1:
        nearest = dist[rows, best]
        dist[rows, best] = np.inf
        second = np.argmin(dist, axis=1)
        gap = dist[rows, second] - nearest
        tied = gap <= 8 * _F32_EPS * (sq + csq[best] + csq[second])
        for j in np.unique(np.concatenate([best[tied], second[tied]])):
            near = tied & ((best == j) | (second == j))
            moved = np.abs(pts[near] - nxt[j]).max(axis=1).sum()
            tol[j] += moved / max(1, counts[j] - int(near.sum()))
    return nxt, tol


def centers_match(got: np.ndarray, want: np.ndarray,
                  tol: np.ndarray) -> bool:
    """True when every center is within its tolerance (max norm)."""
    return bool(np.all(np.abs(np.asarray(got) - want).max(axis=1) <= tol))
