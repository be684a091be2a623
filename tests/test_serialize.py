"""Round-trip and schema tests for the file formats."""

import json
from pathlib import Path

import numpy as np
import pytest

import sparsecert
from sparsecert import build_cyclic, generate_instance
from sparsecert.constants import build_certificate
from sparsecert.experiment import ExperimentRecord
from sparsecert import serialize


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == serialize.TOOLKIT_VERSION
    assert sparsecert.__version__ is serialize.TOOLKIT_VERSION


def test_matrix_json_bit_exact_round_trip():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 7)) * np.pi
    payload = serialize.matrix_to_json_dict(mat)
    text = json.dumps(payload)
    back = serialize.matrix_from_json_dict(json.loads(text))
    assert np.array_equal(back, mat)  # bitwise, not approximate


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((4, 3)) / 3.0
    path = tmp_path / "mat.csv"
    serialize.save_matrix_csv(path, mat)
    back = serialize.load_matrix_csv(path)
    assert np.array_equal(back, mat)


def test_hypergraph_round_trip():
    h = build_cyclic(5, 2)
    back = serialize.hypergraph_from_json_dict(serialize.hypergraph_to_json_dict(h))
    assert back == h


def test_code_set_round_trip():
    _, codes = generate_instance(4, 4, 2, build_cyclic(4, 2), 7, seed=0)
    back = serialize.code_set_from_json_dict(serialize.code_set_to_json_dict(codes))
    assert np.array_equal(back.codes, codes.codes)
    assert back.supports == codes.supports
    assert back.k == codes.k


def test_certificate_payload_fields():
    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=1)
    cert = build_certificate(mat, codes, h)
    payload = serialize.certificate_to_json_dict(
        cert, input_digests={"dictionary_sha256": "x"})
    for key in ("version", "L2", "L2k", "L2H", "C1", "C2",
                "eps_max_dictionary", "eps_max_codes", "support_counts",
                "flags", "inputs"):
        assert key in payload
    assert payload["flags"]["sip_ok"] is True
    json.dumps(payload)  # must be serializable as-is


def test_theorem_report_payload():
    import sparsecert as sc
    from sparsecert.experiment import perturb_instance

    h = build_cyclic(4, 2)
    mat, codes = generate_instance(4, 4, 2, h, 7, seed=3)
    cert = build_certificate(mat, codes, h)
    rng = np.random.default_rng(0)
    cand, codes_bar = perturb_instance(mat, codes, "dict_jitter",
                                       cert.eps_max_dictionary / 2, rng)
    eps = float(np.max(np.linalg.norm(
        mat @ codes.codes - cand @ codes_bar.codes, axis=0)))
    report = sc.verify_theorem1(mat, codes, cand, codes_bar, cert, eps)
    payload = serialize.theorem_report_to_json_dict(report)
    for key in ("residuals", "matched_pairs", "max_column_error", "bound5",
                "eq5_ok", "m_bar_ok", "code_tier_active"):
        assert key in payload
    assert len(payload["matched_pairs"]) == 4
    assert {"source", "target", "scale", "column_error"} <= set(
        payload["matched_pairs"][0])
    if payload["code_tier_active"]:
        assert "code_errors" in payload and "code_bounds" in payload
    json.dumps(payload)


def test_records_csv_schema():
    records = [
        ExperimentRecord(seed=2, eps=1e-3, max_col_err=1e-4, bound5=0.3,
                         max_code_err=None, bound6=None, pass5=True,
                         pass6=None, ms=1.5),
        ExperimentRecord(seed=1, eps=1e-4, max_col_err=1e-5, bound5=0.03,
                         max_code_err=2e-3, bound6=0.5, pass5=True,
                         pass6=True, ms=2.0),
    ]
    text = serialize.records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == serialize.EXPERIMENT_CSV_HEADER
    # sorted by (seed, eps); empty cells for the inactive code tier
    assert lines[1].startswith("1,")
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert len(first) == len(second) == 9
    assert second[4] == second[5] == second[7] == ""
    assert first[6] == "1" and first[7] == "1"
    # numeric fields recompute their pass flags
    assert (float(first[2]) <= float(first[3]) + 1e-9) == (first[6] == "1")


def test_canonical_digest_stability():
    a = serialize.canonical_digest({"b": 1, "a": [1.5, 2.5]})
    b = serialize.canonical_digest({"a": [1.5, 2.5], "b": 1})
    assert a == b


def test_dump_json_deterministic(tmp_path):
    payload = {"z": 1, "a": [1.0, 2.0]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.dump_json(payload, p1)
    serialize.dump_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
