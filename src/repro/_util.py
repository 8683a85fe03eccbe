"""Small vectorised helpers shared across the package.

These are the NumPy idioms that replace the inner loops a CUDA kernel
would run: gathering the concatenated adjacency lists of a vertex
frontier, and computing per-chunk maxima used by the load-imbalance
(warp/block serialisation) cost model.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "concat_ranges",
    "sorted_unique",
    "chunk_max_sum",
    "segment_max_sums",
    "as_index_array",
    "check_nonnegative_int",
]


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Return ``concatenate([arange(s, s+c) for s, c in zip(starts, counts)])``.

    This is the standard cumulative-sum trick for expanding CSR row slices
    without a Python-level loop; it is the workhorse of the frontier
    expansion step (gathering all neighbours of all frontier vertices at
    once).

    Parameters
    ----------
    starts, counts:
        Equal-length integer arrays. ``counts`` entries may be zero.

    Returns
    -------
    numpy.ndarray of int64 with ``counts.sum()`` elements.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts and counts must have the same shape")
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    ends = np.cumsum(counts)
    # Output slot k of range i holds starts[i] + (k - (ends[i] - counts[i])).
    return (np.arange(ends[-1], dtype=np.int64)
            + np.repeat(starts - ends + counts, counts))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D integer array, by sort and mask
    (the frontier deduplication of every BFS level, where NumPy's
    hash-based ``unique`` is several times slower)."""
    values = np.sort(values)
    if values.size < 2:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def chunk_max_sum(weights: np.ndarray, chunk: int) -> float:
    """Sum of per-chunk maxima of ``weights`` split into chunks of ``chunk``.

    Models serialised execution of a group of ``chunk`` concurrent threads
    where each thread performs ``weights[i]`` sequential units of work:
    the group finishes when its slowest thread does, so the total time of
    all groups is the sum of per-group maxima.  An empty ``weights`` costs
    zero.  The one-segment case of :func:`segment_max_sums`.
    """
    weights = np.asarray(weights)
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    blocks = np.arange(weights.size) // chunk
    return float(segment_max_sums(weights, np.zeros(weights.size, np.int64),
                                  blocks, 1)[0])


def segment_max_sums(weights: np.ndarray, segments: np.ndarray,
                     blocks: np.ndarray, num_segments: int) -> np.ndarray:
    """Per segment, the sum over its blocks of each block's largest weight.

    Entry ``i`` belongs to group ``(segments[i], blocks[i])``; the result
    has ``num_segments`` float entries, zero for a segment with no
    entries.  This is :func:`chunk_max_sum` for many levels at once: a
    segment is a BFS level and a block one chunk of concurrent threads.
    Maxima are summed as floats, in block order within each segment.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        return np.zeros(num_segments)
    width = int(blocks.max()) + 1
    key = np.asarray(segments, dtype=np.int64) * width + blocks
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key, weights = key[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return np.bincount(key[starts] // width,
                       weights=np.maximum.reduceat(weights, starts),
                       minlength=num_segments)


def as_index_array(x, n: int, name: str = "indices") -> np.ndarray:
    """Validate and convert ``x`` to an int64 array of vertex ids < ``n``."""
    arr = np.asarray(x, dtype=np.int64).ravel()
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise IndexError(f"{name} out of range [0, {n})")
    return arr


def check_nonnegative_int(value, name: str) -> int:
    """Return ``value`` as a non-negative ``int`` or raise ``ValueError``."""
    iv = int(value)
    if iv < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return iv
