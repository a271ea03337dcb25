import contextlib
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgap import acceptance, config, consensus, primitivity, report, spectrum
from gossipgap.cli import main
from gossipgap.config import SIZE_MAX, ConfigError, ExperimentConfig, load_config
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
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
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
    with pytest.raises(ConfigError, match="expected an object"):
        ExperimentConfig.from_dict({"process": [{"kind": "push_sum", "seed": 1}]})


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


def test_write_table_returns_digest_of_its_bytes(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(1, 0.1, math.nan, math.inf, -0.0), (True, "a,b", None)]
    assert write_table(path, ("a", "b"), rows) == sha256_of(path)


def _reference_csv(header, rows) -> bytes:
    """One ``format_value`` per field, RFC 4180 quoting of the text."""
    def field(v):
        s = format_value(v)
        return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s
    return "".join(",".join(map(field, r)) + "\n" for r in [header, *rows]).encode()


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                   -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308]
_TEXT = st.text(alphabet='an,"\r\n é1', max_size=6)
_CELLS = {
    "float": st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS),
    "float64": (st.floats() | st.sampled_from(_SPECIAL_FLOATS)).map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([2 ** 63, -2 ** 63 - 1]),
    "int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "bool": st.booleans(),
    "bool_": st.booleans().map(np.bool_),
    "none": st.none(),
    "text": _TEXT,
}
_ANY_CELL = st.one_of(*_CELLS.values())


@st.composite
def _tables(draw):
    """A header and rows whose columns each keep one kind of value, apart
    from a few cells of any kind and, sometimes, rows cut short."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5))
    rows = [[draw(_CELLS[k]) for k in kinds] for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_ANY_CELL)
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        del row[draw(st.integers(0, len(row) - 1)):]
    header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, rows


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_write_table_bytes_equal_reference_join(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("t") / "t.csv"
    digest = write_table(path, header, (r for r in rows))
    assert path.read_bytes() == _reference_csv(header, rows)
    assert digest == sha256_of(path)


def _ring5_trajectory():
    """The trajectory table of the benchmark's ring5-lossy simulate call."""
    proc = acceptance.ring5_process(True, 2024)
    x0 = np.random.default_rng(3).uniform(0.1, 1.0, proc.p)
    return consensus.run(proc, x0, np.ones(proc.p), 600,
                         checkpoints=consensus.make_checkpoints(600, "linear", count=200))


def test_trajectory_table_takes_the_template_path(tmp_path, monkeypatch):
    traj = _ring5_trajectory()
    want = _reference_csv(traj.TABLE_HEADER, traj.rows())
    calls = []

    def counted(v):
        calls.append(v)
        return format_value(v)

    monkeypatch.setattr(report, "format_value", counted)
    write_table(tmp_path / "t.csv", traj.TABLE_HEADER, traj.rows())
    assert (tmp_path / "t.csv").read_bytes() == want
    assert calls == []
    # the counter sees a table that cannot take the template
    write_table(tmp_path / "u.csv", ("a", "b"), [(1, 0.5), (2, None)])
    assert calls


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


def test_cli_simulate_linear_count_sets_rows(tmp_path):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["horizon"] = {"n": 600, "checkpoints": "linear", "count": 50}
    path = tmp_path / "lin.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "demo_trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 50
    assert [int(r.split(",")[0]) for r in rows] == \
        consensus.make_checkpoints(600, "linear", count=50).tolist()


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


_TWO_NODE_CFG = {**PUSH_SUM_CFG, "process": {
    "kind": "push_sum", "seed": 77, "p": 2, "edges": [[0, 1], [1, 0]],
    "share": 0.5, "loss_prob": [0.5, 0.5]}}


def _gap_rows_match_birkhoff_estimator(tmp_path, base, ms, trials):
    """Run ``gap`` on ``base`` with block lengths ``ms``; check its table
    against the estimator's rows and return them."""
    cfg = json.loads(json.dumps(base))
    cfg["estimators"]["birkhoff_m"] = ms
    cfg["estimators"]["trials"] = trials
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "g"
    assert main(["gap", "--config", str(path), "--out", str(out), "--seed", "7"]) == 0
    proc = load_config(path).build_process(7)
    rows = []
    for m in sorted(ms):
        g = spectrum.estimate_gap_birkhoff(proc, m, trials)
        rows.append((m, g.value, g.stderr, g.diagnostics["tau_one_fraction"],
                     g.diagnostics["tau_zero_fraction"]))
    want = write_table(tmp_path / "want.csv",
                       ("m", "birkhoff_gap", "stderr", "tau_one_fraction",
                        "tau_zero_fraction"), rows)
    assert sha256_of(out / "demo_gap.csv") == want
    return rows


# at m = 8 no product of the p = 4 config is positive yet
_TAU_ONE_AT_8 = "all 32 trials had tau = 1 at m=8; increase m"


def test_cli_gap_rows_match_birkhoff_estimator(tmp_path):
    # the sweep runs on the process the subcommand built, sorted by m
    with pytest.warns(UserWarning, match=_TAU_ONE_AT_8):
        rows = _gap_rows_match_birkhoff_estimator(tmp_path, PUSH_SUM_CFG, [32, 8, 16], 32)
    assert [r[-1] for r in rows] == [0.0, 0.0, 0.0]
    # no trial value at m = 8: its stderr is undefined and printed blank
    assert (tmp_path / "g" / "demo_gap.csv").read_text().splitlines()[1] == "8,0,,1,0"


@pytest.mark.parametrize("base,want", [
    (PUSH_SUM_CFG, ["37,0.065515606926497896,0.0041131850407060489,0.03125,0",
                    "1000,0.10401187206602601,0.00111720496423162,0,0"]),
    (_TWO_NODE_CFG, ["37,0.37602785737618982,0.013165853603819812,0,0",
                     "1000,0.38506721808999167,0.0027046185523756012,0,0"]),
], ids=["p4", "two_node"])
def test_cli_gap_rows_off_the_segment_grid_are_pinned(tmp_path, base, want):
    # m = 37 ends in a 5-step segment and m = 1000 (32 trials, draws of
    # 512 steps at p = 4) in an 8-step one.  The rows were written when a
    # short last segment's product was formed by a call of its own; padding
    # it with identities must not change a digit
    cfg = json.loads(json.dumps(base))
    cfg["estimators"]["birkhoff_m"] = [37, 1000]
    out = tmp_path / "g"
    assert main(["gap", "--config", str(_write(tmp_path, cfg)), "--out", str(out),
                 "--seed", "7"]) == 0
    assert (out / "demo_gap.csv").read_text().splitlines()[1:] == want


def test_cli_duplicate_block_lengths_are_config_error(tmp_path, capsys, monkeypatch):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["estimators"]["birkhoff_m"] = [16, 16, 32]
    monkeypatch.setattr(spectrum, "estimate_spectrum_qr", _no_estimation)
    out = tmp_path / "o"
    assert main(["gap", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: estimators: birkhoff_m entries must be distinct, "
                   "got [16, 16, 32]\n")
    assert not out.exists()


def test_cli_gap_rows_count_censored_trials(tmp_path):
    # at m = 2000 most two-node products underflow float resolution
    # (tau = 0); the row counts the trials its mean leaves out
    rows = _gap_rows_match_birkhoff_estimator(tmp_path, _TWO_NODE_CFG, [2000, 8], 16)
    assert rows[0][-1] == 0.0 and rows[1][-1] > 0.5


@pytest.mark.parametrize("cmd", ["spectrum", "gap"])
def test_cli_estimators_ignore_threads(cfg_path, tmp_path, cmd):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out, extra in ((out1, []), (out2, ["--threads", "3"])):
        with (pytest.warns(UserWarning, match=_TAU_ONE_AT_8) if cmd == "gap"
              else contextlib.nullcontext()):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out), *extra]) == 0
    names = sorted(f.name for f in out1.iterdir())
    assert names == sorted(f.name for f in out2.iterdir())
    for name in names:
        a, b = ((out / name).read_bytes() for out in (out1, out2))
        if name.endswith("_manifest.json"):     # only created_utc may differ
            a, b = ({**json.loads(t), "created_utc": None} for t in (a, b))
        assert a == b, name


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


@pytest.mark.filterwarnings("error")
def test_cli_primitivity_flat_survival_tail_leaves_the_fit_blank(tmp_path,
                                                                  monkeypatch):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["horizon"]["n"] = 100
    p = tmp_path / "prim.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setattr(primitivity, "sample_forward_indices",
                        lambda proc, count: np.array([5] * 60 + [30] * 40))
    out = tmp_path / "prim"
    assert main(["primitivity", "--config", str(p), "--out", str(out)]) == 0
    rows = (out / "demo_summary.csv").read_text().splitlines()
    summary = dict(line.split(",", 1) for line in rows[1:])
    assert summary["survival_slope"] == summary["survival_corr"] == ""


_SWAP_CFG = {"process": {"kind": "constant", "seed": 1, "matrix": [[0, 1], [1, 0]]},
             "horizon": {"n": 100, "checkpoints": "geometric"}}


def _no_sampling(*args, **kwargs):
    raise AssertionError("index sampling ran on a non-primitive family")


def test_cli_primitivity_non_primitive_family_fails_fast(tmp_path, capsys,
                                                         monkeypatch):
    # a family with no positive product ends the command before any
    # index is sampled
    p = tmp_path / "swap.json"
    p.write_text(json.dumps(_SWAP_CFG), encoding="utf-8")
    for name in ("sample_forward_indices", "sample_backward_indices"):
        monkeypatch.setattr(primitivity, name, _no_sampling)
    out = tmp_path / "o"
    assert main(["primitivity", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the constant pattern family "
                          "is not primitive")
    assert not out.exists()


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
    ("process", "p", 5.9),
    ("process", "p", "5"),
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


@pytest.mark.parametrize("section,key,name", [
    ("horizon", "n", "n"), ("horizon", "count", "count"),
    ("estimators", "k", "k"), ("estimators", "reorth_period", "reorth_period"),
    ("estimators", "replicates", "replicates"), ("estimators", "burn_in", "burn_in"),
    ("estimators", "trials", "trials"), ("estimators", "wedge_n", "wedge_n"),
    ("estimators", "birkhoff_m", "birkhoff_m entry"), ("process", "p", "p"),
    ("process", "edges", "edge endpoint"),
])
def test_cli_size_above_bound_is_config_error(tmp_path, capsys, section, key, name):
    cmd = "spectrum" if section == "estimators" else "simulate"
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    big = SIZE_MAX + 1
    cfg[section][key] = {"birkhoff_m": [8, big], "edges": [[0, 1], [1, big]]}.get(key, big)
    out = tmp_path / "o"
    assert main([cmd, "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: {section}: {name} must be <= 2**53")
    assert not out.exists()


def test_cli_seed_of_any_size_runs(tmp_path):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["process"]["seed"] = cfg["initial"]["sub_seed"] = 2**70
    assert main(["simulate", "--config", str(_write(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")]) == 0


def test_cli_refused_allocation_is_exit_2(tmp_path, capsys):
    # p x p float64 arrays at p = 10**9 ask for 8 EiB, which any 64-bit host
    # refuses at once
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["process"]["p"] = 10**9
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("out of memory: ")
    assert not out.exists()


@pytest.mark.parametrize("key,value,match", [
    ("edges", [[0.0, 1.7], [1, 2], [2, 3], [3, 0], [0, 2]], "edge endpoint"),
    ("edges", [[0, 1], [1, 2.0], [2, 3], [3, 0], [0, 2]], "edge endpoint"),
    ("edges", 5, r"\[i, j\] pairs"),
    ("loss_prob", ["0.1", "0.2", "0.4", "0.1", "0.3"], "loss_prob"),
    ("loss_prob", "0.1", "loss_prob"),
    ("share", True, "share"),
    ("edge_prob", ["0.2"] * 5, "edge_prob"),
])
def test_cli_push_sum_field_not_a_number_is_config_error(tmp_path, capsys, key,
                                                         value, match):
    # the manifest echoes the config as written, so a float endpoint must not
    # run truncated (edge [0.0, 1.7] as (0, 1)) nor a string run as a number
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["process"][key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        load_config(p)
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value,message", [
    ("edges", [], "graph has no edges"),
    ("edge_prob", [0.5, 0.5], "edge_prob, share and loss_prob must have one entry per edge"),
    ("share", [0.5] * 4, "edge_prob, share and loss_prob must have one entry per edge"),
    ("loss_prob", [0.1] * 6, "edge_prob, share and loss_prob must have one entry per edge"),
    ("edge_prob", [[0.2] * 5],
     "edge_prob must be a list of numbers, got [[0.2, 0.2, 0.2, 0.2, 0.2]]"),
    ("share", [[0.5]] * 5,
     "share must be a number or a list of numbers, got [[0.5], [0.5], [0.5], [0.5], [0.5]]"),
    ("loss_prob", [[0.0, 0.2, 0.4, 0.1, 0.3]],
     "loss_prob must be a number or a list of numbers, got [[0.0, 0.2, 0.4, 0.1, 0.3]]"),
    ("edge_prob", [-0.2, 0.4, 0.4, 0.2, 0.2],
     "edge probabilities must be nonnegative and sum to 1"),
    ("edge_prob", [0.2, 0.2, 0.2, 0.2, 0.3],
     "edge probabilities must be nonnegative and sum to 1"),
    ("share", 0.0, "shares must lie strictly inside (0, 1)"),
    ("share", [0.5, 0.5, 1.0, 0.5, 0.5], "shares must lie strictly inside (0, 1)"),
    ("loss_prob", 1.0, "loss probabilities must lie in [0, 1)"),
    ("edges", [[0, 1], [1, 1], [2, 3], [3, 0], [0, 2]], "self-loop (1,1) not allowed"),
    ("edges", [[0, 1], [1, 2], [2, 3], [0, 1], [0, 2]], "duplicate edge (0,1)"),
    ("edges", [[0, 1], [1, 2], [2, 4], [3, 0], [0, 2]], "edge (2,4) out of range for p=4"),
    ("edge_prob", 0.2, "edge_prob must be a list of numbers, got 0.2"),
    ("share", [[0.5], 0.5, 0.5, 0.5, 0.5],
     "share must be a number or a list of numbers, got [[0.5], 0.5, 0.5, 0.5, 0.5]"),
])
def test_cli_refused_push_sum_process_is_config_error(tmp_path, capsys, key, value,
                                                      message):
    # every push-sum input the schema or the process constructor refuses is
    # one config error line; a field of the wrong shape is named
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["process"][key] = value
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: process: {message}\n"
    assert not out.exists()


def _write(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


FAMILY_CFGS = {
    "iid_family": {"kind": "iid_family", "seed": 1,
                   "matrices": [[[0.5, 0.0], [0.5, 1.0]], [[1.0, 0.5], [0.0, 0.5]]],
                   "probs": [0.5, 0.5]},
    "markov_family": {"kind": "markov_family", "seed": 1,
                      "matrices": [[[0.5, 0.0], [0.5, 1.0]], [[1.0, 0.5], [0.0, 0.5]]],
                      "transition": [[0.5, 0.5], [0.5, 0.5]]},
    "constant": {"kind": "constant", "seed": 1, "matrix": [[0.5, 0.25], [0.5, 0.75]]},
}


@pytest.mark.parametrize("kind,section,key,path,value", [
    ("iid_family", "process", "probs", (0,), "0.5"),
    ("iid_family", "process", "matrices", (1, 0, 1), "0.5"),
    ("iid_family", "process", "matrices", (0, 1, 1), True),
    ("markov_family", "process", "transition", (1, 0), "0.5"),
    ("markov_family", "process", "transition", (0, 1), False),
    ("markov_family", "process", "matrices", (0, 0, 0), None),
    ("constant", "process", "matrix", (0, 1), "0.25"),
    ("constant", "initial", "x0", (0,), "1"),
    ("constant", "initial", "x0", (1,), True),
    ("iid_family", "initial", "w0", (0,), True),
])
def test_cli_family_field_not_a_number_is_config_error(tmp_path, capsys, kind, section,
                                                       key, path, value):
    cfg = {"process": json.loads(json.dumps(FAMILY_CFGS[kind])),
           "initial": {"x0": [1.0, 2.0], "w0": [1.0, 1.0]},
           "horizon": {"n": 50, "checkpoints": "geometric"}}
    assert main(["simulate", "--config", str(_write(tmp_path, cfg)),
                 "--out", str(tmp_path / "ok")]) == 0
    field = cfg[section]
    for i in (key,) + path[:-1]:
        field = field[i]
    field[path[-1]] = value
    p = _write(tmp_path, cfg)
    with pytest.raises(ConfigError, match=key):
        load_config(p)
    capsys.readouterr()
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {section}: {key}")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def _config_dicts():
    for path in sorted((Path(__file__).parents[1] / "perfbench" / "configs").rglob("*.json")):
        yield json.loads(path.read_text(encoding="utf-8"))
    yield PUSH_SUM_CFG
    for proc in FAMILY_CFGS.values():
        yield {"process": proc}


def test_config_to_dict_round_trips():
    for d in _config_dicts():
        echo = ExperimentConfig.from_dict(d).to_dict()
        assert ExperimentConfig.from_dict(echo).to_dict() == echo


def test_config_docstring_names_every_field():
    tables = [*config._PROCESS.values(), *config._SCHEMA.values()]
    for name in {name for rows in tables for name in rows}:
        assert f"``{name}``" in config.__doc__, name


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
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg[section][key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setattr(spectrum, "estimate_spectrum_qr", _no_estimation)
    out = tmp_path / "o"
    assert main([cmd, "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon.n") and "reorth_period" in err
    assert not out.exists()


@pytest.mark.parametrize("key,vector", [("w0", [-1, 1, 1, 1]), ("x0", [1.0, 2.0])])
def test_cli_spectrum_bad_initial_pair_is_config_error_before_estimation(
        tmp_path, capsys, monkeypatch, key, vector):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["initial"][key] = vector
    p = _write(tmp_path, cfg)
    for name in ("estimate_spectrum_qr", "check_det_identity",
                 "estimate_sum_top2_wedge"):
        monkeypatch.setattr(spectrum, name, _no_estimation)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: initial")
    assert "Traceback" not in err and not out.exists()


def test_cli_gap_without_block_lengths_is_config_error(tmp_path, capsys,
                                                      monkeypatch):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["estimators"]["birkhoff_m"] = []
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    with monkeypatch.context() as mp:
        mp.setattr(spectrum, "estimate_spectrum_qr", _no_estimation)
        out = tmp_path / "o"
        assert main(["gap", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: gap needs") and "birkhoff_m" in err
    assert "Traceback" not in err and not out.exists()
    # spectrum never reads the block lengths
    assert main(["spectrum", "--config", str(p), "--out", str(tmp_path / "s")]) == 0


def test_cli_gap_on_one_node_is_config_error(tmp_path, capsys, monkeypatch):
    cfg = {"process": {"kind": "constant", "seed": 1, "matrix": [[0.5]]},
           "horizon": {"n": 2000, "checkpoints": "geometric"}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setattr(spectrum, "estimate_spectrum_qr", _no_estimation)
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
                         checkpoints=consensus.make_checkpoints(
                             cfg.horizon.n, cfg.horizon.checkpoints,
                             count=cfg.horizon.count))
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
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0

    def no_estimation(*args, **kwargs):
        raise AssertionError("estimation ran before the bundle check")

    monkeypatch.setattr(spectrum, "estimate_spectrum_qr", no_estimation)
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


@pytest.mark.parametrize("initial_dist", [None, [0.25] * 4])
def test_cli_markov_initial_dist_is_unknown_key(tmp_path, capsys, initial_dist):
    # a Markov family always starts from its stationary law: the field is
    # gone, so an echo of an older manifest (null) is refused like a typo
    fam = [np.eye(2).tolist(), [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.0], [0.5, 1.0]],
           [[1.0, 0.5], [0.0, 0.5]]]
    cfg = {"process": {"kind": "markov_family", "seed": 1, "matrices": fam,
                       "transition": [[0.25] * 4] * 4, "initial_dist": initial_dist},
           "horizon": {"n": 50, "checkpoints": "geometric"}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == \
        "config error: process: unknown keys ['initial_dist']\n"
    assert not (tmp_path / "o").exists()


BAD_INITIAL = [("x0", [math.nan, 0.3, 0.2, 0.1], "finite"),
               ("w0", [math.inf, 1.0, 1.0, 1.0], "finite"),
               ("x0", [0.1, -math.inf, 0.2, 0.1], "finite"),
               ("x0", ["a", 1, 2, 3], "must be numbers"),
               ("x0", {"a": 1}, "must be numbers"),
               ("w0", [-1, 1, 1, 1], "w0 must be nonnegative and not all zero"),
               ("w0", [0, 0, 0, 0], "w0 must be nonnegative and not all zero")]


@pytest.mark.parametrize("key,vector,message", BAD_INITIAL,
                         ids=[f"{key}-vector{n}" for n, (key, _, _) in enumerate(BAD_INITIAL)])
def test_cli_non_finite_initial_vector_is_config_error(tmp_path, capsys, key, vector,
                                                        message):
    cfg = json.loads(json.dumps(PUSH_SUM_CFG))
    cfg["initial"][key] = vector
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")    # json writes NaN/Infinity
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err and "Traceback" not in err


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


def test_cli_manifest_echoes_the_seed_used(cfg_path, tmp_path):
    # the echoed config, run again without --seed, reproduces the tables
    out, again = tmp_path / "out", tmp_path / "again"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "999"]) == 0
    echo = json.loads((out / "demo_manifest.json").read_text(encoding="utf-8"))["config"]
    assert echo["process"]["seed"] == 999
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(again)]) == 0
    for table in ("demo_trajectory.csv", "demo_summary.csv"):
        assert sha256_of(out / table) == sha256_of(again / table)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(again)]) == 0
    echo = json.loads((again / "demo_manifest.json").read_text(encoding="utf-8"))["config"]
    assert echo["process"]["seed"] == PUSH_SUM_CFG["process"]["seed"]


@pytest.mark.parametrize("seed", ["-5", "abc", "1.5"])
def test_cli_bad_seed_names_the_flag(cfg_path, tmp_path, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
              f"--seed={seed}"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument --seed: must be a nonnegative integer, got '{seed}'" in err
    assert not (tmp_path / "o").exists()


def test_cli_acceptance_takes_no_seed(capsys):
    # the acceptance suite runs on its own pinned seeds
    with pytest.raises(SystemExit) as exc:
        main(["acceptance", "--seed", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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


def _truncated(text):
    return text[:len(text) // 2]


def _non_object(text):
    return json.dumps(json.loads(text)["outputs"])


def _entry_without_digest(text):
    data = json.loads(text)
    del data["outputs"][0]["sha256"]
    return json.dumps(data)


@pytest.mark.parametrize("damage", [_truncated, _non_object, _entry_without_digest])
def test_malformed_manifest_does_not_verify(cfg_path, tmp_path, damage):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = out / "demo_manifest.json"
    manifest.write_text(damage(manifest.read_text(encoding="utf-8")), encoding="utf-8")
    assert verify_manifest(manifest) is False


@pytest.mark.parametrize("listed", ["absolute", "../outside.txt"])
def test_manifest_lists_only_bundle_files(cfg_path, tmp_path, listed):
    # a file outside the bundle directory fails even when its digest matches
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = out / "demo_manifest.json"
    assert verify_manifest(manifest)
    outside = tmp_path / "outside.txt"
    outside.write_text("not in the bundle\n", encoding="utf-8")
    data = json.loads(manifest.read_text(encoding="utf-8"))
    data["outputs"].append({"path": str(outside) if listed == "absolute" else listed,
                            "sha256": sha256_of(outside)})
    manifest.write_text(json.dumps(data), encoding="utf-8")
    assert verify_manifest(manifest) is False


def test_cli_acceptance_exit_codes(monkeypatch, tmp_path, capsys):
    from gossipgap import acceptance as acc_mod
    def fake_run_all(verbose=False):
        return [acc_mod.CriterionResult(1, "stub ok", True, 0.0, "fine"),
                acc_mod.CriterionResult(2, "stub bad", False, 0.0, "broken")]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    rc = main(["acceptance", "--out", str(tmp_path)])
    assert rc == 3
    assert (tmp_path / "acceptance_criteria.csv").exists()

    monkeypatch.setattr(acceptance, "run_all",
                        lambda verbose=False: [acc_mod.CriterionResult(
                            1, "stub ok", True, 0.0, "fine")])
    assert main(["acceptance"]) == 0


def test_cli_acceptance_quotes_text_fields(monkeypatch, tmp_path):
    detail = 'l1=0.5 (tol 1e-6), say "ok"\nruntime<1s=True\r\nend'
    monkeypatch.setattr(acceptance, "run_all", lambda verbose=False: [
        acceptance.CriterionResult(1, "a, b", True, 0.25, detail)])
    assert main(["acceptance", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "acceptance_criteria.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert rows == [{"id": "1", "name": "a, b", "passed": "True",
                     "runtime_s": "0.25", "details": detail}]
