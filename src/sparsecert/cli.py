"""Command-line interface: certify instances, generate synthetic data, run
noise-sweep experiments, and run the subspace/counting property checks.

Exit codes: 0 success, 1 hypothesis or inequality failure, 2 usage/parse error.

Each command imports the modules it runs when it runs, so a ``certify``
child never loads ``alignment``, ``experiment`` or ``lemmas``, and a
``check-lemmas`` child never loads ``alignment``, ``experiment``,
``constants`` or ``codes``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize
from .errors import SparseCertError
from .geometry import DEFAULT_RANK_TOL, spark_polynomial
from .hypergraph import _config_integer, as_real, hypergraph_from_config


def _load_json(path):
    """The JSON object in the file at ``path``."""
    with open(path) as fh:
        return serialize._json_object(json.load(fh), path)


def _section(config, key):
    """The JSON object under ``key`` of a config, empty when it is absent."""
    return serialize._json_object(config.get(key, {}), key)


def _emit(text, out):
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def cmd_certify(args):
    from .constants import build_certificate

    dict_payload = _load_json(args.dict)
    codes_payload = _load_json(args.codes)
    hyper_payload = _load_json(args.hypergraph)
    dictionary = serialize.matrix_from_json_dict(dict_payload)
    codes = serialize.code_set_from_json_dict(codes_payload)
    hypergraph = serialize.hypergraph_from_json_dict(hyper_payload)

    cert = build_certificate(dictionary, codes, hypergraph, rank_tol=args.tol)
    digests = {
        "dictionary_sha256": serialize.canonical_digest(dict_payload),
        "codes_sha256": serialize.canonical_digest(codes_payload),
        "hypergraph_sha256": serialize.canonical_digest(hyper_payload),
    }
    diagnostics = None
    if args.data_poly:
        signals = dictionary @ codes.codes
        diagnostics = {
            "data_spark_polynomial": spark_polynomial(signals, hypergraph.k)
        }
    payload = serialize.certificate_to_json_dict(cert, digests, diagnostics)
    _emit(serialize.dump_json(payload), args.out)
    return 0 if cert.hypotheses_ok else 1


def cmd_generate(args):
    from .codes import synthesize_dataset
    from .experiment import generate_instance

    config = _load_json(args.config) if args.config else {}
    m = _config_integer(config, "m", 4)
    n = _config_integer(config, "n", 4)
    k = _config_integer(config, "k", 2)
    per_support = _config_integer(config, "per_support_count", 7)
    eta = as_real(config.get("eta", 0.0), "eta")
    seed = args.seed if args.seed is not None else _config_integer(config, "seed", 0)
    noise = config.get("noise", "ball")
    if noise not in ("ball", "sphere"):
        raise ValueError(f"noise must be \"ball\" or \"sphere\", got {noise!r}")
    worst_case = noise == "sphere"
    hypergraph = hypergraph_from_config(config.get("hypergraph", "cyclic"), m, k)

    dictionary, codes = generate_instance(m, n, k, hypergraph, per_support,
                                          seed=seed)
    dataset = synthesize_dataset(dictionary, codes, eta, seed=seed,
                                 worst_case=worst_case)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.dump_json(serialize.matrix_to_json_dict(dictionary),
                        out_dir / "dictionary.json")
    serialize.dump_json(serialize.code_set_to_json_dict(codes),
                        out_dir / "codes.json")
    serialize.dump_json(serialize.hypergraph_to_json_dict(hypergraph),
                        out_dir / "hypergraph.json")
    serialize.save_matrix_csv(out_dir / "signals.csv", dataset.signals)
    bundle = {
        "seed": seed,
        "eta": eta,
        "noise": noise,
        "dictionary": serialize.matrix_to_json_dict(dictionary),
        "codes": serialize.code_set_to_json_dict(codes),
        "hypergraph": serialize.hypergraph_to_json_dict(hypergraph),
        "noise_matrix": serialize.matrix_to_json_dict(dataset.noise),
    }
    serialize.dump_json(bundle, out_dir / "ground_truth.json")
    print(f"wrote instance (m={m}, n={n}, k={k}, seed={seed}) to {out_dir}")
    return 0


def cmd_experiment(args):
    from .experiment import run_experiment

    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    records, summary = run_experiment(config)
    csv_text = serialize.records_to_csv(records)
    _emit(csv_text, args.out)
    print(
        f"# records={summary['records']}"
        f" pass5_rate={summary['pass5_rate']}"
        f" pass6_rate={summary['pass6_rate']}"
        f" error_vs_eps_slope={summary['error_vs_eps_slope']}",
        file=sys.stderr,
    )
    ok = summary["records"] > 0 and summary["pass5_rate"] == 1.0 and (
        summary["pass6_rate"] in (None, 1.0))
    return 0 if ok else 1


def cmd_check_lemmas(args):
    from .lemmas import check_lemma3, check_lemma4, validate_lemma4

    config = _load_json(args.config) if args.config else {}
    # the Lemma-4 input is rejected before any Lemma-3 sampling is paid for
    l4_cfg = _section(config, "lemma4")
    m = _config_integer(l4_cfg, "m", 4, "lemma4.m")
    k = _config_integer(l4_cfg, "k", 2, "lemma4.k")
    hypergraph = hypergraph_from_config(l4_cfg.get("hypergraph", "cyclic"), m, k)
    m_bar = _config_integer(l4_cfg, "m_bar", m + 1, "lemma4.m_bar")
    validate_lemma4(hypergraph, m_bar)
    l3_cfg = _section(config, "lemma3")
    seed = args.seed
    if seed is None and l3_cfg.get("seed") is not None:
        seed = _config_integer(l3_cfg, "seed", None, "lemma3.seed")
    if seed is not None and seed < 0:
        raise ValueError(f"the Lemma-3 seed must be non-negative, got {seed}")
    report3 = check_lemma3(
        trials=_config_integer(l3_cfg, "trials", 200, "lemma3.trials"),
        ambient_dim=_config_integer(l3_cfg, "ambient_dim", 8, "lemma3.ambient_dim"),
        max_subspaces=_config_integer(l3_cfg, "max_subspaces", 4,
                                      "lemma3.max_subspaces"),
        seed=seed,
    )
    report4 = check_lemma4(hypergraph, m_bar)
    payload = {
        "distance_to_intersection": {
            "trials": report3.trials,
            "violations": report3.violations,
            "worst_margin": report3.worst_margin,
            "failures": report3.failures,
        },
        "injective_map_counting": {
            "m": report4.m,
            "m_bar": report4.m_bar,
            "r": report4.r,
            "guaranteed_size": report4.guaranteed_size,
            "admissible_maps": report4.admissible,
            "verified_maps": report4.verified,
            "types": report4.types,
            "counterexamples": report4.counterexamples,
        },
    }
    _emit(serialize.dump_json(payload), args.out)
    return 0 if report3.ok and report4.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsecert",
        description="identifiability and stability certificates for sparse coding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a dictionary/codes/hypergraph triple")
    p.add_argument("--dict", required=True, help="dictionary matrix JSON file")
    p.add_argument("--codes", required=True, help="code set JSON file")
    p.add_argument("--hypergraph", required=True, help="hypergraph JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--out", default=None, help="certificate JSON output path")
    p.add_argument("--data-poly", action="store_true",
                   help="also evaluate the spark polynomial of the clean data matrix")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("generate", help="generate a verified synthetic instance")
    p.add_argument("--config", default=None, help="generation config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("experiment", help="run a noise sweep against the bounds")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("check-lemmas", help="run the subspace and counting checks")
    p.add_argument("--config", default=None, help="check config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report JSON output path")
    p.set_defaults(func=cmd_check_lemmas)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SparseCertError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
