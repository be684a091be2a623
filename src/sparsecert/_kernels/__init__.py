"""Smallest-singular-value kernel: one batched LAPACK SVD per index array."""

import numpy as np


def edge_min_singular_values(mat, edges):
    """Smallest singular value of ``mat[:, edge]`` for every row of ``edges``.

    ``edges`` is an (E, w) array of 0-based column indices. Width zero and
    widths above the row count are rank deficient by shape and give zeros.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.intp)
    if edges.ndim != 2:
        raise ValueError("edges must be an (E, w) index array")
    n_rows, n_cols = mat.shape
    if edges.size and (edges.min() < 0 or edges.max() >= n_cols):
        raise ValueError("edge index out of range for the given matrix")
    if not 0 < edges.shape[1] <= n_rows:
        return np.zeros(len(edges))
    return np.linalg.svd(np.moveaxis(mat[:, edges], 1, 0), compute_uv=False)[:, -1]
