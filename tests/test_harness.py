import json
import math
from pathlib import Path

import numpy as np
import pytest

from gossipgap import cli, consensus
from gossipgap.cli import main
from gossipgap.config import ConfigError, ExperimentConfig, load_config
from gossipgap.report import format_value, sha256_of, verify_manifest, write_table

PUSH_SUM_CFG = {
    "process": {
        "kind": "push_sum",
        "seed": 20240,
        "p": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]],
        "share": 0.5,
        "loss_prob": [0.0, 0.2, 0.4, 0.1, 0.3],
    },
    "initial": {"x0": "random-positive", "w0": "ones", "sub_seed": 3},
    "horizon": {"n": 2000, "checkpoints": "geometric"},
    "estimators": {"k": 2, "replicates": 4, "birkhoff_m": [8, 32], "trials": 32,
                   "wedge_n": 2000},
    "output": {"prefix": "demo"},
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(PUSH_SUM_CFG), encoding="utf-8")
    return p


# -- config parsing -----------------------------------------------------------


def test_config_round_trip(cfg_path):
    cfg = load_config(cfg_path)
    again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert again.to_dict() == cfg.to_dict()


def test_config_unknown_keys_rejected(tmp_path):
    bad = dict(PUSH_SUM_CFG)
    bad["extra_section"] = {}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(p)


def test_config_unknown_nested_key_rejected():
    bad = json.loads(json.dumps(PUSH_SUM_CFG))
    bad["process"]["loss_probability"] = 0.1
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(bad)


def test_config_missing_required():
    with pytest.raises(ConfigError, match="missing"):
        ExperimentConfig.from_dict({"process": {"kind": "push_sum", "seed": 1}})
    with pytest.raises(ConfigError, match="unknown kind"):
        ExperimentConfig.from_dict({"process": {"kind": "pull_sum", "seed": 1}})


def test_config_builds_each_kind():
    for proc_spec, kind in (
            ({"kind": "constant", "seed": 1, "matrix": [[1.0, 0.5], [0.0, 0.5]]},
             "constant"),
            ({"kind": "iid_family", "seed": 1,
              "matrices": [[[1, 0], [0, 1]], [[1, 1], [1, 0]]],
              "probs": [0.5, 0.5]}, "iid_family"),
            ({"kind": "markov_family", "seed": 1,
              "matrices": [[[1, 0], [0, 1]], [[1, 1], [1, 0]]],
              "transition": [[0.5, 0.5], [0.3, 0.7]]}, "markov_family")):
        cfg = ExperimentConfig.from_dict({"process": proc_spec})
        proc = cfg.build_process()
        assert proc.kind == kind
        assert proc.next_matrix().shape == (2, 2)


def test_config_initial_vectors():
    cfg = ExperimentConfig.from_dict({
        "process": {"kind": "constant", "seed": 1, "matrix": [[1.0]]},
        "initial": {"x0": [2.5], "w0": "ones", "sub_seed": 9}})
    x0, w0 = cfg.build_initial(1)
    assert x0.tolist() == [2.5] and w0.tolist() == [1.0]
    cfg2 = ExperimentConfig.from_dict({
        "process": {"kind": "constant", "seed": 1, "matrix": [[1.0]]},
        "initial": {"x0": "random-positive", "sub_seed": 9}})
    a, _ = cfg2.build_initial(1)
    b, _ = cfg2.build_initial(1)
    assert a == pytest.approx(b)  # sub-seeded, reproducible
    assert 0 < a[0] <= 1


def test_config_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)


# -- report formatting ----------------------------------------------------------


def test_format_value():
    assert format_value(None) == ""
    assert format_value(float("nan")) == ""
    assert format_value(float("inf")) == "inf"
    assert format_value(1) == "1"
    assert format_value(math.pi) == format(math.pi, ".17g")
    assert float(format_value(0.1)) == 0.1


# -- CLI end-to-end ---------------------------------------------------------------


def test_cli_simulate_writes_bundle(cfg_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    traj = out / "demo_trajectory.csv"
    summary = out / "demo_summary.csv"
    manifest = out / "demo_manifest.json"
    assert traj.exists() and summary.exists() and manifest.exists()
    header = traj.read_text().splitlines()[0]
    assert header == "n,max_ratio_error,tv,envelope_min,envelope_max,hilbert,limit_estimate"
    assert verify_manifest(manifest)


def test_cli_simulate_deterministic(cfg_path, tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (sha256_of(out1 / "demo_trajectory.csv")
            == sha256_of(out2 / "demo_trajectory.csv"))
    assert (sha256_of(out1 / "demo_summary.csv")
            == sha256_of(out2 / "demo_summary.csv"))
    # a different seed changes the tables
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out3),
                 "--seed", "999"]) == 0
    assert (sha256_of(out1 / "demo_trajectory.csv")
            != sha256_of(out3 / "demo_trajectory.csv"))


def test_cli_simulate_no_loss_limit_is_mean(tmp_path):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["process"]["loss_prob"] = 0.0
    cfg["horizon"]["n"] = 5000
    path = tmp_path / "noloss.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "demo_summary.csv").read_text().splitlines()
    summary = dict(line.split(",", 1) for line in rows[1:])
    x0, _ = ExperimentConfig.from_dict(cfg).build_initial(4)
    assert float(summary["limit_estimate"]) == pytest.approx(x0.mean(), abs=1e-8)
    assert summary["column_stochastic"] == "True"


def test_cli_spectrum(cfg_path, tmp_path):
    out = tmp_path / "spec"
    rc = main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    rows = (out / "demo_summary.csv").read_text().splitlines()
    summary = dict(line.split(",", 1) for line in rows[1:])
    # half-share transactions: log|det| = -log 2 regardless of loss
    assert float(summary["det_identity_lhs"]) == pytest.approx(-math.log(2), abs=1e-12)
    assert float(summary["gap"]) > 0


def test_cli_gap_parallel_matches_serial(cfg_path, tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(["gap", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["gap", "--config", str(cfg_path), "--out", str(out2),
                 "--threads", "2"]) == 0
    assert sha256_of(out1 / "demo_gap.csv") == sha256_of(out2 / "demo_gap.csv")


def test_cli_gap_pool_never_exceeds_tasks(cfg_path, tmp_path, monkeypatch):
    # a recorder stands in for the pool, so no worker is ever started
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    assert main(["gap", "--config", str(cfg_path), "--out", str(tmp_path / "g"),
                 "--threads", "4096"]) == 0
    assert seen == [len(PUSH_SUM_CFG["estimators"]["birkhoff_m"])]


def test_cli_primitivity(tmp_path):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["horizon"]["n"] = 300  # number of index samples
    p = tmp_path / "prim.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "prim"
    rc = main(["primitivity", "--config", str(p), "--out", str(out)])
    assert rc == 0
    rows = (out / "demo_summary.csv").read_text().splitlines()
    summary = dict(line.split(",", 1) for line in rows[1:])
    assert summary["family_primitive"] == "True"
    assert (out / "demo_indices.csv").exists()


_SWAP_CFG = {"process": {"kind": "constant", "seed": 1, "matrix": [[0, 1], [1, 0]]},
             "horizon": {"n": 100, "checkpoints": "geometric"}}


def _no_sampling(*args, **kwargs):
    raise AssertionError("index sampling ran on a non-primitive family")


def test_cli_primitivity_non_primitive_family_fails_fast(tmp_path, capsys,
                                                         monkeypatch):
    # a decided (uncapped) BFS that finds no positive product ends the
    # command before any index is sampled
    from gossipgap import cli as cli_mod

    p = tmp_path / "swap.json"
    p.write_text(json.dumps(_SWAP_CFG), encoding="utf-8")
    for name in ("sample_forward_indices", "sample_backward_indices"):
        monkeypatch.setattr(cli_mod.primitivity, name, _no_sampling)
    out = tmp_path / "o"
    assert main(["primitivity", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the constant pattern family "
                          "is not primitive")
    assert not out.exists()


def test_cli_primitivity_capped_search_still_samples(tmp_path, monkeypatch):
    # an inconclusive (capped) BFS keeps sampling and reports capped=True
    from gossipgap import cli as cli_mod
    from gossipgap.primitivity import PrimitivityReport

    p = tmp_path / "swap.json"
    p.write_text(json.dumps(_SWAP_CFG), encoding="utf-8")
    calls = []

    def fake_samples(proc, count, *args, **kwargs):
        calls.append(count)
        return np.full(count, 2, dtype=np.int64)

    monkeypatch.setattr(cli_mod.primitivity, "is_family_primitive",
                        lambda pats: PrimitivityReport(False, None, 3, True))
    for name in ("sample_forward_indices", "sample_backward_indices"):
        monkeypatch.setattr(cli_mod.primitivity, name, fake_samples)
    out = tmp_path / "o"
    assert main(["primitivity", "--config", str(p), "--out", str(out)]) == 0
    assert calls == [100, 100]
    rows = (out / "run_summary.csv").read_text().splitlines()
    summary = dict(line.split(",", 1) for line in rows[1:])
    assert summary["family_primitive"] == "False" and summary["capped"] == "True"


def test_cli_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"process": {"kind": "push_sum", "seed": 1}}),
                   encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1


@pytest.mark.parametrize("section,key,value", [
    ("estimators", "k", "two"),
    ("estimators", "k", True),
    ("estimators", "replicates", 0),
    ("estimators", "burn_in", -1),
    ("estimators", "birkhoff_m", [8, 2.5]),
    ("horizon", "n", "100"),
])
def test_cli_bad_integer_field_is_config_error(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg[section][key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        load_config(p)
    assert main(["spectrum", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("section,key,value", [
    ("process", "seed", "abc"),
    ("process", "seed", -1),
    ("initial", "sub_seed", "x"),
    ("initial", "sub_seed", 1.5),
])
def test_cli_bad_seed_is_config_error(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg[section][key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err


def test_cli_unusable_output_is_exit_1(cfg_path, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    for out in (afile, afile / "sub"):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
    assert afile.read_text(encoding="utf-8") == "keep"


@pytest.mark.parametrize("prefix", ["../x/run", "sub/run", "a\\b", ""])
def test_cli_prefix_with_path_is_config_error(tmp_path, capsys, prefix):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["output"]["prefix"] = prefix
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    (tmp_path / "x").mkdir()
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "prefix" in err
    assert not out.exists() and not any((tmp_path / "x").iterdir())


def _simulate_zero_row_family(tmp_path, probs, n):
    """``simulate`` on an i.i.d. family whose second member has a zero row."""
    cfg = {"process": {"kind": "iid_family", "seed": 1,
                       "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]]],
                       "probs": probs},
           "horizon": {"n": n, "checkpoints": "geometric"}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])


def test_cli_numerical_error_exit_code(tmp_path, capsys):
    # a family member with a zero row stalls the recursion at its first draw
    assert _simulate_zero_row_family(tmp_path, [0.5, 0.5], 200) == 2
    err = capsys.readouterr().err
    assert "numerical failure: update matrix must be row-allowable" in err
    assert "Traceback" not in err


def test_cli_rare_zero_row_member_is_numerical_error(tmp_path, capsys):
    # the zero-row member is drawn w.p. 0.1: some step within 1000 emits it
    assert _simulate_zero_row_family(tmp_path, [0.9, 0.1], 1000) == 2
    err = capsys.readouterr().err
    assert "numerical failure: update matrix must be row-allowable" in err
    assert "Traceback" not in err


def test_cli_k_above_p_is_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["estimators"]["k"] = 5      # p = 4
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "estimators.k" in err and "Traceback" not in err
    assert not out.exists()
    cfg["estimators"]["k"] = 4      # k = p is allowed
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["spectrum", "--config", str(p), "--out", str(out)]) == 0


def _no_estimation(*args, **kwargs):
    raise AssertionError("estimation ran before the config check")


@pytest.mark.parametrize("cmd", ["spectrum", "gap"])
@pytest.mark.parametrize("section,key,value", [
    ("horizon", "n", 5), ("estimators", "reorth_period", 1000)])
def test_cli_short_horizon_is_config_error(tmp_path, capsys, monkeypatch, cmd,
                                           section, key, value):
    from gossipgap import cli as cli_mod

    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg[section][key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setattr(cli_mod.spectrum, "estimate_spectrum_qr", _no_estimation)
    out = tmp_path / "o"
    assert main([cmd, "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon.n") and "reorth_period" in err
    assert not out.exists()


def test_cli_gap_on_one_node_is_config_error(tmp_path, capsys, monkeypatch):
    from gossipgap import cli as cli_mod

    cfg = {"process": {"kind": "constant", "seed": 1, "matrix": [[0.5]]},
           "horizon": {"n": 2000, "checkpoints": "geometric"}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setattr(cli_mod.spectrum, "estimate_spectrum_qr", _no_estimation)
    out = tmp_path / "o"
    assert main(["gap", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: gap needs") and "p = 1" in err
    assert not out.exists()


def _numpy_scalar_rows(traj):
    """Trajectory rows as numpy scalars, as ``Trajectory.rows`` once gave them."""
    err = traj.max_ratio_error()
    for i in range(len(traj.ns)):
        yield (int(traj.ns[i]), err[i], traj.tv[i], traj.env_min[i],
               traj.env_max[i], traj.hilbert[i], traj.mid[i])


def test_trajectory_table_same_as_from_numpy_scalars(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    proc = cfg.build_process(None)
    traj = consensus.run(proc, *cfg.build_initial(proc.p), cfg.horizon.n,
                         checkpoints=cfg.horizon.checkpoints)
    write_table(tmp_path / "ref.csv", traj.TABLE_HEADER, _numpy_scalar_rows(traj))
    assert (out / "demo_trajectory.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    # missing and infinite values, and integer checkpoints, format the same
    traj.tv[0] = np.nan
    traj.hilbert[1] = np.inf
    traj.env_min[2] = -np.inf
    traj.mid[3] = -0.0
    write_table(tmp_path / "a.csv", traj.TABLE_HEADER, traj.rows())
    write_table(tmp_path / "b.csv", traj.TABLE_HEADER, _numpy_scalar_rows(traj))
    text = (tmp_path / "a.csv").read_text(encoding="utf-8")
    assert text == (tmp_path / "b.csv").read_text(encoding="utf-8")
    assert [row.split(",")[0] for row in text.splitlines()[1:]] == \
        [str(n) for n in traj.ns]
    assert ",inf," in text and ",-inf," in text and ",," in text


def test_cli_bundle_of_another_subcommand_is_kept(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = out / "demo_manifest.json"
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert json.loads(manifest.read_text(encoding="utf-8"))["command"] == "spectrum"
    assert main(["gap", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "another subcommand" in err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    assert verify_manifest(manifest)
    # a manifest that names no subcommand counts as another one's
    data = json.loads(manifest.read_text(encoding="utf-8"))
    del data["command"]
    manifest.write_text(json.dumps(data), encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 1


def test_cli_foreign_bundle_refused_before_estimation(cfg_path, tmp_path, capsys,
                                                     monkeypatch):
    from gossipgap import cli as cli_mod

    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0

    def no_estimation(*args, **kwargs):
        raise AssertionError("estimation ran before the bundle check")

    monkeypatch.setattr(cli_mod.spectrum, "estimate_spectrum_qr", no_estimation)
    assert main(["gap", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "another subcommand" in err


def test_cli_non_square_constant_is_config_error(tmp_path, capsys):
    cfg = {"process": {"kind": "constant", "seed": 1,
                       "matrix": [[1, 0.5, 0.2], [0, 0.5, 0.1]]},
           "horizon": {"n": 50, "checkpoints": "geometric"}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "square" in err and "Traceback" not in err


@pytest.mark.parametrize("initial_dist", [[0.5, 0.5], [[0.5, 0.5], [0.0, 0.0]]])
def test_cli_markov_initial_dist_of_wrong_shape_is_config_error(tmp_path, capsys,
                                                                initial_dist):
    fam = [np.eye(2).tolist(), [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.0], [0.5, 1.0]],
           [[1.0, 0.5], [0.0, 0.5]]]
    cfg = {"process": {"kind": "markov_family", "seed": 1, "matrices": fam,
                       "transition": [[0.25] * 4] * 4, "initial_dist": initial_dist},
           "horizon": {"n": 50, "checkpoints": "geometric"}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "one entry per member" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,vector", [("x0", [math.nan, 0.3, 0.2, 0.1]),
                                        ("w0", [math.inf, 1.0, 1.0, 1.0]),
                                        ("x0", [0.1, -math.inf, 0.2, 0.1])])
def test_cli_non_finite_initial_vector_is_config_error(tmp_path, capsys, key, vector):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["initial"][key] = vector
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")    # json writes NaN/Infinity
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err and "Traceback" not in err


def test_cli_same_subcommand_overwrites_its_bundle(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "999"]) == 0
    manifest = out / "demo_manifest.json"
    assert json.loads(manifest.read_text(encoding="utf-8"))["command"] == "simulate"
    assert verify_manifest(manifest)


@pytest.mark.parametrize("cmd", ["simulate", "primitivity", "acceptance"])
def test_cli_threads_only_on_estimators(cfg_path, cmd, capsys):
    argv = [cmd, "--threads", "8"]
    if cmd != "acceptance":
        argv += ["--config", str(cfg_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--threads" in err


def test_manifest_detects_tampering(cfg_path, tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    manifest = out / "demo_manifest.json"
    assert verify_manifest(manifest)
    (out / "demo_trajectory.csv").write_text("tampered\n", encoding="utf-8")
    assert not verify_manifest(manifest)


def test_manifest_detects_missing_file(cfg_path, tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    (out / "demo_summary.csv").unlink()
    assert not verify_manifest(out / "demo_manifest.json")


def test_cli_acceptance_exit_codes(monkeypatch, tmp_path, capsys):
    from gossipgap import acceptance as acc_mod
    from gossipgap import cli as cli_mod

    def fake_run_all(verbose=False):
        return [acc_mod.CriterionResult(1, "stub ok", True, 0.0, "fine"),
                acc_mod.CriterionResult(2, "stub bad", False, 0.0, "broken")]

    monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_run_all)
    rc = main(["acceptance", "--out", str(tmp_path)])
    assert rc == 3
    assert (tmp_path / "acceptance_criteria.csv").exists()

    monkeypatch.setattr(cli_mod.acceptance, "run_all",
                        lambda verbose=False: [acc_mod.CriterionResult(
                            1, "stub ok", True, 0.0, "fine")])
    assert main(["acceptance"]) == 0
