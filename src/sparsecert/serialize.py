"""File formats: matrices as CSV/JSON, hypergraphs, code sets, certificates,
and the experiment CSV.

JSON matrices round-trip bit-exactly (Python's shortest-repr float encoding
restores the original doubles); CSV uses 17 significant digits for the same
reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

import numpy as np

from . import __version__ as TOOLKIT_VERSION
from .hypergraph import Hypergraph, as_integer

EXPERIMENT_CSV_HEADER = "seed,eps,max_col_err,bound5,max_code_err,bound6,pass5,pass6,ms"


def _json_object(value, name):
    """``value`` when it is a JSON object; anything else raises ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _json_array(value, name):
    """``value`` when it is a JSON array; anything else raises ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def save_matrix_csv(path, mat):
    np.savetxt(path, np.asarray(mat, dtype=float), delimiter=",", fmt="%.17g")


def load_matrix_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def matrix_to_json_dict(mat):
    mat = np.asarray(mat, dtype=float)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "data": [float(v) for v in mat.ravel(order="C")],
    }


def matrix_from_json_dict(payload):
    _json_object(payload, "matrix payload")
    rows = as_integer(payload["rows"], "rows")
    cols = as_integer(payload["cols"], "cols")
    data = np.asarray(_json_array(payload["data"], "matrix data"), dtype=float)
    if data.size != rows * cols:
        raise ValueError("matrix payload has wrong length")
    return data.reshape(rows, cols)


def hypergraph_to_json_dict(hypergraph):
    return {"m": hypergraph.m, "edges": [list(e) for e in hypergraph.edges]}


def hypergraph_from_json_dict(payload):
    _json_object(payload, "hypergraph payload")
    edges = [_json_array(e, "edge") for e in _json_array(payload["edges"], "edges")]
    return Hypergraph(payload["m"], edges)


def code_set_to_json_dict(codes):
    return {
        "m": codes.m,
        "k": codes.k,
        "supports": [list(s) for s in codes.supports],
        "codes": matrix_to_json_dict(codes.codes),
    }


def code_set_from_json_dict(payload):
    # imported here so that reading the other formats does not load ``codes``
    from .codes import SparseCodeSet

    _json_object(payload, "code set payload")
    return SparseCodeSet(
        as_integer(payload["m"], "m"),
        matrix_from_json_dict(payload["codes"]),
        tuple(tuple(_json_array(s, "support"))
              for s in _json_array(payload["supports"], "supports")),
        as_integer(payload["k"], "k"),
    )


def canonical_digest(payload):
    """SHA-256 of the canonical JSON encoding of a payload dict."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def certificate_to_json_dict(cert, input_digests=None, diagnostics=None):
    """Every field of a ``StabilityCertificate``, with the ``*_ok`` flags
    under ``"flags"`` and ``support_counts`` as a list of (support, count)
    objects sorted by support."""
    payload = {"version": TOOLKIT_VERSION, "flags": {}}
    for field in dataclasses.fields(cert):
        value = getattr(cert, field.name)
        if field.name == "support_counts":
            value = [{"support": list(edge), "count": count}
                     for edge, count in sorted(value.items())]
        if field.name.endswith("_ok"):
            payload["flags"][field.name] = value
        else:
            payload[field.name] = value
    if input_digests:
        payload["inputs"] = dict(input_digests)
    if diagnostics:
        payload["diagnostics"] = dict(diagnostics)
    return payload


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records):
    """Experiment records in the stable CSV schema (sorted by seed, eps)."""
    out = io.StringIO()
    out.write(EXPERIMENT_CSV_HEADER + "\n")
    for rec in sorted(records, key=lambda r: (r.seed, r.eps)):
        cells = [
            rec.seed, rec.eps, rec.max_col_err, rec.bound5,
            rec.max_code_err, rec.bound6, rec.pass5, rec.pass6, rec.ms,
        ]
        out.write(",".join(_csv_cell(c) for c in cells) + "\n")
    return out.getvalue()


def dump_json(payload, path=None):
    """Serialize deterministically; write to path or return the string."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return None
