"""CLI subcommands, exit codes, and output determinism."""

import json

import numpy as np
import pytest

from sparsecert import HypothesisError, constants, lemmas, serialize, spark_polynomial
from sparsecert.cli import main

from oracles import power_node_codes, workloads


@pytest.fixture()
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
    return out


def test_generate_writes_parseable_files(instance_dir):
    for name in ("dictionary.json", "codes.json", "hypergraph.json",
                 "ground_truth.json"):
        json.loads((instance_dir / name).read_text())
    mat = serialize.load_matrix_csv(instance_dir / "signals.csv")
    assert mat.shape[1] == 28


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--seed", "9", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "9", "--out", str(b)]) == 0
    for name in ("dictionary.json", "codes.json", "hypergraph.json",
                 "ground_truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_eta_zero_matches_product(tmp_path, instance_dir):
    bundle = json.loads((instance_dir / "ground_truth.json").read_text())
    assert bundle["eta"] == 0.0
    import numpy as np

    mat = serialize.matrix_from_json_dict(bundle["dictionary"])
    codes = serialize.code_set_from_json_dict(bundle["codes"])
    signals = serialize.load_matrix_csv(instance_dir / "signals.csv")
    assert np.allclose(signals, mat @ codes.codes, atol=1e-15)


def test_certify_good_instance(instance_dir, tmp_path, capsys):
    code = main([
        "certify",
        "--dict", str(instance_dir / "dictionary.json"),
        "--codes", str(instance_dir / "codes.json"),
        "--hypergraph", str(instance_dir / "hypergraph.json"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["sip_ok"]
    assert payload["C1"] > 0


def test_certify_without_c1_exits_1(instance_dir, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise HypothesisError("degenerate")

    monkeypatch.setattr(constants, "compute_C2", refuse)
    code = main([
        "certify",
        "--dict", str(instance_dir / "dictionary.json"),
        "--codes", str(instance_dir / "codes.json"),
        "--hypergraph", str(instance_dir / "hypergraph.json"),
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["C1"] is None
    assert all(payload["flags"].values())


def test_certify_repeated_column_exits_1(tmp_path, capsys):
    # column 3 repeats column 1, so the spans of edges {1, 2} and {2, 3}
    # coincide: C2 is refused and no certificate is issued
    import numpy as np

    from sparsecert import build_cyclic

    h = build_cyclic(4, 2)
    mat = np.random.default_rng(5).standard_normal((4, 4))
    mat[:, 2] = mat[:, 0]
    codes = power_node_codes(h.edges, 7, (0.8, 1.25), m=4)
    (tmp_path / "dict.json").write_text(json.dumps(
        serialize.matrix_to_json_dict(mat)))
    (tmp_path / "codes.json").write_text(json.dumps(
        serialize.code_set_to_json_dict(codes)))
    (tmp_path / "hyper.json").write_text(json.dumps(
        serialize.hypergraph_to_json_dict(h)))
    code = main(["certify", "--dict", str(tmp_path / "dict.json"),
                 "--codes", str(tmp_path / "codes.json"),
                 "--hypergraph", str(tmp_path / "hyper.json")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["C2"] is None and payload["C1"] is None
    assert not payload["flags"]["lower_bound_ok"]


def test_certify_missing_codes_exits_1(instance_dir, tmp_path, capsys):
    codes = json.loads((instance_dir / "codes.json").read_text())
    # drop the codes for one support entirely
    keep = [i for i, s in enumerate(codes["supports"]) if tuple(s) != (1, 2)]
    import numpy as np

    mat = serialize.matrix_from_json_dict(codes["codes"])[:, keep]
    trimmed = {
        "m": codes["m"],
        "k": codes["k"],
        "supports": [codes["supports"][i] for i in keep],
        "codes": serialize.matrix_to_json_dict(mat),
    }
    path = tmp_path / "trimmed.json"
    path.write_text(json.dumps(trimmed))
    code = main([
        "certify",
        "--dict", str(instance_dir / "dictionary.json"),
        "--codes", str(path),
        "--hypergraph", str(instance_dir / "hypergraph.json"),
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["flags"]["counts_ok"]


def test_certify_identity_instance_constant(tmp_path, capsys):
    # identity dictionary with balanced power-node codes: coordinate-span
    # geometry gives the bare (r + 1) constant
    import numpy as np

    from sparsecert import build_cyclic

    h = build_cyclic(4, 2)
    codes = power_node_codes(h.edges, 7, (0.8, 1.25), m=4)
    (tmp_path / "dict.json").write_text(json.dumps(
        serialize.matrix_to_json_dict(np.eye(4))))
    (tmp_path / "codes.json").write_text(json.dumps(
        serialize.code_set_to_json_dict(codes)))
    (tmp_path / "hyper.json").write_text(json.dumps(
        serialize.hypergraph_to_json_dict(h)))
    code = main(["certify", "--dict", str(tmp_path / "dict.json"),
                 "--codes", str(tmp_path / "codes.json"),
                 "--hypergraph", str(tmp_path / "hyper.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(payload["flags"].values())
    assert payload["C2"] == pytest.approx(3.0, abs=1e-9)


def test_certify_non_spark_dictionary_exit_zero(tmp_path, capsys):
    # spark fails but the union-hypergraph bound holds: the dictionary-recovery
    # certificate is still issued, with the code tier withheld
    import numpy as np

    from sparsecert import build_cyclic

    eye = np.eye(5)
    mat = np.hstack([eye, (eye[:, 0] + eye[:, 2] + eye[:, 4])[:, None]])
    h = build_cyclic(6, 2)
    codes = power_node_codes(h.edges, 16, (0.75, 1.25), m=6)
    (tmp_path / "dict.json").write_text(json.dumps(
        serialize.matrix_to_json_dict(mat)))
    (tmp_path / "codes.json").write_text(json.dumps(
        serialize.code_set_to_json_dict(codes)))
    (tmp_path / "hyper.json").write_text(json.dumps(
        serialize.hypergraph_to_json_dict(h)))
    code = main(["certify", "--dict", str(tmp_path / "dict.json"),
                 "--codes", str(tmp_path / "codes.json"),
                 "--hypergraph", str(tmp_path / "hyper.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert not payload["flags"]["spark_ok"]
    assert payload["flags"]["lower_bound_ok"]
    assert payload["L2H"] > 1e-6
    assert payload["eps_max_codes"] is None
    assert payload["eps_max_dictionary"] > 0


def _certify_args(directory, mat, codes, hypergraph):
    """``certify`` arguments for an instance written to ``directory``."""
    payloads = {"dict": serialize.matrix_to_json_dict(mat),
                "codes": serialize.code_set_to_json_dict(codes),
                "hypergraph": serialize.hypergraph_to_json_dict(hypergraph)}
    args = ["certify"]
    for name, payload in payloads.items():
        serialize.dump_json(payload, directory / f"{name}.json")
        args += [f"--{name}", str(directory / f"{name}.json")]
    return args


def test_certify_data_poly_of_scattered_codes(tmp_path, capsys):
    # one code per support: the 4 samples are independent, so the data
    # matrix's spark polynomial is positive, and counts_ok fails, so the
    # exit code is 1
    mat, codes, h = workloads.gaussian_instance(np.random.default_rng(0), "cyclic",
                                                4, 4, 2, 1)
    args = _certify_args(tmp_path, mat, codes, h)
    assert main(args + ["--data-poly"]) == 1
    payload = json.loads(capsys.readouterr().out)
    value = payload["diagnostics"]["data_spark_polynomial"]
    assert value == spark_polynomial(mat @ codes.codes, 2)
    assert value > 0.0
    assert main(args) == 1
    assert "diagnostics" not in json.loads(capsys.readouterr().out)


def test_certify_data_poly_vanishes_on_generated_instance(tmp_path, capsys):
    # 7 codes on each support: any 4 of one support's samples are dependent
    out = tmp_path / "inst"
    assert main(["generate", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    args = ["certify", "--dict", str(out / "dictionary.json"),
            "--codes", str(out / "codes.json"),
            "--hypergraph", str(out / "hypergraph.json")]
    assert main(args + ["--data-poly"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == {
        "data_spark_polynomial": 0.0}
    assert main(args) == 0
    assert "diagnostics" not in json.loads(capsys.readouterr().out)


def test_certify_deterministic_output(instance_dir, tmp_path):
    args = ["certify",
            "--dict", str(instance_dir / "dictionary.json"),
            "--codes", str(instance_dir / "codes.json"),
            "--hypergraph", str(instance_dir / "hypergraph.json")]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["certify", "--dict", str(bad), "--codes", str(bad),
                 "--hypergraph", str(bad)])
    assert code == 2


@pytest.mark.parametrize("name, key, value", [
    ("hypergraph.json", "m", 4.7),
    ("hypergraph.json", "m", True),
    ("hypergraph.json", "edges", [[1.5, 2], [2, 3], [3, 4], [1, 4]]),
    ("dictionary.json", "rows", 4.9),
    ("codes.json", "k", 1.9),
])
def test_certify_refuses_non_integer_inputs(instance_dir, capsys, name, key, value):
    # each used to be truncated, and the truncated input certified with exit 0
    path = instance_dir / name
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    code = main(["certify", "--dict", str(instance_dir / "dictionary.json"),
                 "--codes", str(instance_dir / "codes.json"),
                 "--hypergraph", str(instance_dir / "hypergraph.json")])
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_certify_bad_tol_exits_2_before_any_check(instance_dir, tol, monkeypatch,
                                                  capsys):
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(constants.geometry, "edge_min_singular_values", no_checks)
    code = main(["certify", "--dict", str(instance_dir / "dictionary.json"),
                 "--codes", str(instance_dir / "codes.json"),
                 "--hypergraph", str(instance_dir / "hypergraph.json"),
                 f"--tol={tol}"])
    assert code == 2
    assert "rank_tol must be positive and finite" in capsys.readouterr().err


def test_experiment_csv(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "m": 4, "n": 4, "k": 2, "hypergraph": "cyclic",
        "per_support_count": 7, "noise_grid": [1e-4, 1e-3],
        "trials": 4, "family": "code_jitter", "seed": 1,
    }))
    out = tmp_path / "records.csv"
    code = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == serialize.EXPERIMENT_CSV_HEADER


def _records_without_ms(path):
    """The CSV rows at ``path`` without their ``ms`` cells."""
    header, *rows = [line.split(",") for line in path.read_text().strip().split("\n")]
    keep = [i for i, name in enumerate(header) if name != "ms"]
    return [[row[i] for i in keep] for row in [header, *rows]]


def test_experiment_seed_flag_overrides_the_config(tmp_path):
    config = {"m": 4, "n": 4, "k": 2, "hypergraph": "cyclic",
              "per_support_count": 7, "noise_grid": [1e-6, 1e-4],
              "trials": 2, "family": "dict_jitter", "seed": 1}
    cfg, seeded = tmp_path / "exp.json", tmp_path / "seeded.json"
    cfg.write_text(json.dumps(config))
    seeded.write_text(json.dumps(dict(config, seed=5)))
    flag, expected, own = (tmp_path / f"{name}.csv"
                           for name in ("flag", "expected", "own"))
    assert main(["experiment", "--config", str(cfg), "--seed", "5",
                 "--out", str(flag)]) == 0
    assert main(["experiment", "--config", str(seeded), "--out", str(expected)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(own)]) == 0
    assert _records_without_ms(flag) == _records_without_ms(expected)
    assert _records_without_ms(flag) != _records_without_ms(own)


def test_generate_and_check_lemmas_refuse_a_design_alike(tmp_path, capsys):
    # complete m=3, k=3 is the one edge (1, 2, 3): regular, without SIP
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"hypergraph": "complete", "m": 3, "n": 3, "k": 3}))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "inst")]) == 1
    generated = capsys.readouterr().err
    cfg.write_text(json.dumps({"lemma4": {"hypergraph": "complete", "m": 3, "k": 3}}))
    assert main(["check-lemmas", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == generated == (
        "check failed: hypergraph lacks the singleton intersection property\n")


@pytest.mark.parametrize("change", [{"trials": 0}, {"trials": -3},
                                    {"noise_grid": []}])
def test_experiment_empty_sweep_exits_2(tmp_path, capsys, change):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(dict({
        "m": 4, "n": 4, "k": 2, "hypergraph": "cyclic",
        "per_support_count": 7, "noise_grid": [1e-3],
        "trials": 1, "family": "code_jitter", "seed": 1,
    }, **change)))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key, value", [
    ("trials", 1.5), ("m", 4.7), ("n", 4.5), ("k", 2.5),
    ("per_support_count", 7.9), ("seed", 0.5), ("trials", "2"), ("seed", True),
])
def test_experiment_rejects_non_integer_config_values(tmp_path, capsys, key, value):
    # a fractional value used to be truncated
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "m": 4, "n": 4, "k": 2, "hypergraph": "cyclic",
        "per_support_count": 7, "noise_grid": [1e-3],
        "trials": 1, "family": "code_jitter", "seed": 1, key: value,
    }))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be an integer")


def test_generate_rejects_fractional_config_values(tmp_path, capsys):
    # this config used to write an m=4 instance with 7 codes per support
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"m": 4.7, "n": 4, "k": 2, "per_support_count": 7.9}))
    out = tmp_path / "inst"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: m must be an integer")
    assert not out.exists()
    cfg.write_text(json.dumps({"m": 4, "n": 4, "k": 2, "per_support_count": 7.9}))
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "per_support_count must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_generate_accepts_integral_floats(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"m": 4.0, "n": 4.0, "k": 2.0, "per_support_count": 7.0,
                               "seed": 3.0}))
    out = tmp_path / "inst"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert serialize.load_matrix_csv(out / "signals.csv").shape == (4, 28)


@pytest.mark.parametrize("eta", ["NaN", "Infinity"])
def test_generate_refuses_non_finite_eta(tmp_path, capsys, eta):
    # these used to write a signals.csv of nan and exit 0
    cfg = tmp_path / "gen.json"
    cfg.write_text(f'{{"eta": {eta}}}')
    out = tmp_path / "inst"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "eta must be nonnegative and finite" in capsys.readouterr().err
    assert not (out / "signals.csv").exists()


def test_check_lemmas_exit_zero(tmp_path, capsys):
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps({
        "lemma3": {"trials": 50, "ambient_dim": 6, "max_subspaces": 3, "seed": 4},
        "lemma4": {"hypergraph": "cyclic", "m": 3, "k": 2, "m_bar": 4},
    }))
    code = main(["check-lemmas", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distance_to_intersection"]["violations"] == 0
    assert payload["injective_map_counting"]["counterexamples"] == []
    assert payload["injective_map_counting"]["types"] == 22


def test_check_lemmas_bad_m_bar_exits_2(tmp_path, capsys):
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps({
        "lemma3": {"trials": 5, "ambient_dim": 6, "max_subspaces": 3, "seed": 4},
        "lemma4": {"hypergraph": "cyclic", "m": 3, "k": 2, "m_bar": -1},
    }))
    code = main(["check-lemmas", "--config", str(cfg)])
    assert code == 2
    assert "m_bar must be a positive integer" in capsys.readouterr().err


def test_check_lemmas_no_trials_exits_2(tmp_path, capsys):
    # zero Lemma-3 trials would pass vacuously with a worst margin of -inf
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps({"lemma3": {"trials": 0}}))
    code = main(["check-lemmas", "--config", str(cfg)])
    assert code == 2
    assert "at least one trial" in capsys.readouterr().err


def test_check_lemmas_ordering_cap_exits_1_before_sampling(tmp_path, monkeypatch,
                                                          capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    # every draw, and so every factorization, goes through the generator
    monkeypatch.setattr(lemmas.np.random, "default_rng", no_draws)
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps({"lemma3": {"max_subspaces": 9}}))
    assert main(["check-lemmas", "--config", str(cfg)]) == 1
    assert "9 subspaces exceed ordering cap 8" in capsys.readouterr().err


def test_check_lemmas_rejects_lemma4_before_lemma3(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(lemmas, "check_lemma3", lambda **kwargs: calls.append(kwargs))
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps({"lemma4": {"m": 7, "m_bar": 8}}))
    code = main(["check-lemmas", "--config", str(cfg)])
    assert code == 1
    assert "exhaustive-check cap" in capsys.readouterr().err
    assert calls == []


def test_check_lemmas_edge_cap_exits_1_before_sampling(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(lemmas, "check_lemma3", lambda **kwargs: calls.append(kwargs))
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps(
        {"lemma4": {"hypergraph": "complete", "m": 5, "k": 2, "m_bar": 6}}))
    assert main(["check-lemmas", "--config", str(cfg)]) == 1
    assert "10 edges above the exhaustive-check cap" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("section, key, value", [
    ("lemma3", "seed", "abc"),
    ("lemma3", "seed", 1.5),
    ("lemma3", "seed", -1),
    ("lemma3", "seed", True),
    ("lemma3", "trials", 20.5),
    ("lemma3", "ambient_dim", 2.7),
    ("lemma3", "max_subspaces", 3.5),
    ("lemma4", "m_bar", 4.5),
])
def test_check_lemmas_rejects_non_integer_config_values(tmp_path, capsys, section,
                                                        key, value):
    # a fractional size used to be truncated, and a bad seed raised a TypeError
    config = {"lemma3": {"trials": 5, "ambient_dim": 6, "max_subspaces": 3},
              "lemma4": {"hypergraph": "cyclic", "m": 3, "k": 2, "m_bar": 4}}
    config[section][key] = value
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps(config))
    assert main(["check-lemmas", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err


def test_check_lemmas_accepts_integral_floats(tmp_path, capsys):
    cfg = tmp_path / "lemmas.json"
    cfg.write_text(json.dumps({
        "lemma3": {"trials": 5.0, "ambient_dim": 6.0, "max_subspaces": 3.0,
                   "seed": 4.0},
        "lemma4": {"hypergraph": "cyclic", "m": 3, "k": 2, "m_bar": 4.0},
    }))
    assert main(["check-lemmas", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["distance_to_intersection"]["trials"] == 5


@pytest.mark.parametrize("change, message", [
    ({"eta": True}, "eta must be a real number, got True"),
    ({"eta": "0.1"}, "eta must be a real number, got '0.1'"),
    ({"eta": 10 ** 400}, "eta must be a real number"),
    ({"noise": "spher"}, "noise must be \"ball\" or \"sphere\", got 'spher'"),
    ({"noise": None}, "noise must be \"ball\" or \"sphere\", got None"),
])
def test_generate_refuses_non_real_eta_and_unknown_noise(tmp_path, capsys, change, message):
    # {"eta": true} used to write an instance with radius 1.0, and an unknown
    # noise kind silently meant "ball"
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(dict({"eta": 0.1}, **change)))
    out = tmp_path / "inst"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("noise", ["ball", "sphere"])
def test_generate_accepts_integer_eta_and_known_noise(tmp_path, noise):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"eta": 1, "noise": noise}))
    out = tmp_path / "inst"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    truth = json.loads((out / "ground_truth.json").read_text())
    assert truth["eta"] == 1.0 and truth["noise"] == noise


@pytest.mark.parametrize("grid", [[True], ["1e-10"], [1e-4, False]])
def test_experiment_refuses_non_real_grid_values(tmp_path, capsys, grid):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "m": 4, "n": 4, "k": 2, "hypergraph": "cyclic",
        "per_support_count": 7, "noise_grid": grid,
        "trials": 1, "family": "dict_jitter", "seed": 0,
    }))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: noise grid value must be a real number")


def test_experiment_skips_infinite_grid_value(tmp_path, capsys):
    config = {"m": 4, "n": 4, "k": 2, "hypergraph": "cyclic", "per_support_count": 7,
              "noise_grid": [1e-8], "trials": 1, "family": "dict_jitter", "seed": 0}
    csv = []
    # JSON has no infinity; Python's json module reads the Infinity token
    for grid in ('[1e-08]', '[1e-08, Infinity]'):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config).replace('[1e-08]', grid))
        out = tmp_path / "records.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        csv.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert csv[0] == csv[1] and len(csv[0]) == 2


_EXPERIMENT = {"m": 4, "n": 4, "k": 2, "hypergraph": "cyclic", "per_support_count": 7,
               "noise_grid": [1e-8], "trials": 1, "family": "dict_jitter", "seed": 0}


def _run_changed(instance_dir, command, name, change):
    """The exit code of ``command`` on the instance, once ``change`` has
    rewritten its file ``name`` (a config file, made when absent)."""
    path = instance_dir / name
    path.write_text(json.dumps(change(json.loads(path.read_text())
                                      if path.exists() else None)))
    if command == "certify":
        args = ["--dict", str(instance_dir / "dictionary.json"),
                "--codes", str(instance_dir / "codes.json"),
                "--hypergraph", str(instance_dir / "hypergraph.json")]
    else:
        args = ["--config", str(path)]
    if command == "generate":
        args += ["--out", str(instance_dir / "generated")]
    return main([command, *args])


@pytest.mark.parametrize("command, name, change", [
    ("certify", "dictionary.json", lambda old: [1.0, 2.0]),
    ("certify", "hypergraph.json", lambda old: dict(old, edges=[1, 2])),
    ("certify", "codes.json", lambda old: dict(old, supports=3)),
    ("check-lemmas", "config.json", lambda old: {"lemma4": [1]}),
    ("experiment", "config.json", lambda old: [_EXPERIMENT]),
    ("experiment", "config.json", lambda old: dict(_EXPERIMENT, noise_grid=5)),
], ids=["dict_list", "edges_ints", "supports_int", "lemma4_list", "config_list",
        "grid_number"])
def test_malformed_input_files_exit_2(instance_dir, capsys, command, name, change):
    # each used to raise TypeError or AttributeError out of main: exit 1
    assert _run_changed(instance_dir, command, name, change) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, name, change, message", [
    ("experiment", "config.json", lambda old: dict(_EXPERIMENT, hypergraph="ring"),
     "unknown hypergraph kind 'ring'"),
    ("generate", "config.json", lambda old: {"hypergraph": "ring"},
     "unknown hypergraph kind 'ring'"),
    ("check-lemmas", "config.json", lambda old: {"lemma4": {"hypergraph": "ring"}},
     "unknown hypergraph kind 'ring'"),
    ("experiment", "config.json", lambda old: dict(_EXPERIMENT, trials=10001),
     "trials above cap 10000"),
    ("experiment", "config.json", lambda old: dict(_EXPERIMENT, family="shuffle"),
     "unknown perturbation family 'shuffle'"),
    ("certify", "dictionary.json", lambda old: dict(old, data=old["data"][:-1]),
     "matrix payload has wrong length"),
    ("check-lemmas", "config.json", lambda old: {"lemma3": {"max_subspaces": 1}},
     "need at least two subspaces per collection"),
], ids=["experiment_ring", "generate_ring", "check_lemmas_ring", "trials_cap",
        "unknown_family", "short_dictionary", "one_subspace"])
def test_typed_refusals_exit_2(instance_dir, capsys, command, name, change, message):
    assert _run_changed(instance_dir, command, name, change) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (instance_dir / "generated").exists()
