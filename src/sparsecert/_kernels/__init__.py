"""Smallest-singular-value kernel: batched LAPACK SVD grouped by edge width."""

import numpy as np


def edge_min_singular_values(mat, edges):
    """Smallest singular value of ``mat[:, edge]`` for every edge.

    ``edges`` is a sequence of 0-based column index sequences. Empty edges
    and edges wider than the row count are rank deficient by shape and
    return zero.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    n_rows, n_cols = mat.shape
    by_width = {}
    for index, edge in enumerate(edges):
        by_width.setdefault(len(edge), []).append(index)
    groups = [(np.array(group, dtype=np.intp),
               np.array([edges[e] for e in group], dtype=np.intp))
              for group in by_width.values()]
    if any(cols.size and (cols.min() < 0 or cols.max() >= n_cols)
           for _, cols in groups):
        raise ValueError("edge index out of range for the given matrix")
    out = np.zeros(len(edges))
    for group, cols in groups:
        if 0 < cols.shape[1] <= n_rows:
            stacked = np.moveaxis(mat[:, cols], 1, 0)
            out[group] = np.linalg.svd(stacked, compute_uv=False)[:, -1]
    return out
