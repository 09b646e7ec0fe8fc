"""End-to-end tests of the batch front end: exit codes, CSV artifacts,
deterministic reruns, and the sweep merge."""

import hashlib
import json
import math

import numpy as np
import pytest

from carlift import carleman, cli


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, out="out", extra=()):
    path = write_cfg(tmp_path, cfg, name=f"{command}_{out}.json")
    out_dir = tmp_path / out
    code = cli.main([command, "--config", path, "--out", str(out_dir), *extra])
    return code, out_dir


def data_rows(path):
    columns, rows = cli.read_csv_rows(str(path))
    return columns.split(","), [r.split(",") for r in rows]


SIM_CFG = {"window": {"benchmark": "weak_quadratic", "M": 8}, "simulate": {"order": 2}}


def test_simulate_artifacts_and_stamp(tmp_path):
    code, out = run(tmp_path, "simulate", SIM_CFG)
    assert code == 0
    for name in ("trajectory.csv", "summary.csv", "resolved_config.json"):
        assert (out / name).exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("# version: ")
    assert lines[1].startswith("# config_sha256: ")
    sha = lines[1].split()[-1]
    canon = json.loads((out / "resolved_config.json").read_text())
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    assert sha == hashlib.sha256(blob).hexdigest()
    assert canon["out"] is None
    cols, rows = data_rows(out / "summary.csv")
    assert cols == ["scheme", "M", "nfe", "x_end_0", "endpoint_error"]
    row = dict(zip(cols, rows[0]))
    assert row["scheme"] == "dpm2" and row["M"] == "8"
    assert float(row["endpoint_error"]) < 1e-2


def test_simulate_zero_model_conserves_rescaled_state(tmp_path):
    cfg = {
        "model": {"mode": "scalar", "terms": []},
        "window": {"x_T": 1.3, "t_start": 1.0, "t_end": 0.05, "M": 12},
        "simulate": {"oracle": False},
    }
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    cols, rows = data_rows(out / "trajectory.csv")
    idx = cols.index("x_over_alpha_0")
    vals = np.array([float(r[idx]) for r in rows])
    assert np.allclose(vals, vals[0], rtol=1e-12)


def test_simulate_inline_separable_model(tmp_path):
    cfg = {
        "model": {"mode": "separable", "d": 2, "terms": [[1, 0, [0.5, 0.7]]]},
        "window": {"x_T": [1.0, 2.0], "t_start": 0.8, "t_end": 0.1, "M": 16},
        "simulate": {"order": 2},
    }
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    assert "x_end_1" in cols
    assert float(dict(zip(cols, rows[0]))["endpoint_error"]) < 1e-2


def test_config_errors_exit_2(tmp_path, capsys):
    bad_cases = [
        {"window": {"M": 8}},
        {"window": {"M": 8, "steps": 4}},
        {"model": {"preset": "linear", "mode": "scalar"}},
        {"model": {"preset": "quartic"}},
        {"window": {"M": "eight"}},
        {"window": {"benchmark": "weak_quadratic", "M": 8}, "carleman": {"condition": "power"}},
    ]
    for cfg in bad_cases:
        code, _ = run(tmp_path, "simulate", {**cfg}, out=f"e{bad_cases.index(cfg)}")
        err = capsys.readouterr().err
        assert code == 2, cfg
        assert err.startswith("config error: $")

    # malformed JSON
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    # missing sections for the chosen command
    code, _ = run(tmp_path, "sweep", {"window": {"benchmark": "linear"}}, out="s0")
    assert code == 2
    code, _ = run(tmp_path, "lchs", {}, out="l0")
    assert code == 2
    code, _ = run(tmp_path, "simulate", {"window": {"M": 4}}, out="m0")
    assert code == 2


def test_numerical_failure_exits_3(tmp_path):
    cfg = {
        "model": {"preset": "linear"},
        "window": {"x_T": 1.0, "t_start": 1.0, "t_end": 1e-7, "M": 4},
    }
    code, _ = run(tmp_path, "simulate", cfg)
    assert code == 3


def test_oversized_lift_exits_3(tmp_path):
    cfg = {
        "model": {"mode": "kron", "d": 4, "blocks": {"1": (0.5 * np.eye(4)).tolist()}},
        "window": {"x_T": [0.1, 0.2, 0.3, 0.4], "t_start": 0.5, "t_end": 0.1, "M": 2},
        "carleman": {"N": 8},
    }
    code, _ = run(tmp_path, "carleman", cfg)
    assert code == 3


def test_oversized_global_system_exits_3(tmp_path, monkeypatch, capsys):
    # the lowered cap admits the step lift (8 * d^N * dim_total = 24 bytes)
    # but not the global system at 12 bytes per entry
    monkeypatch.setattr(carleman, "MAX_STEP_BYTES", 256)
    cfg = {"window": {"benchmark": "weak_quadratic", "M": 8}, "carleman": {"N": 3}}
    code, _ = run(tmp_path, "carleman", cfg)
    assert code == 3
    assert "global system needs" in capsys.readouterr().err


def test_condition_estimate_short_of_rtol_exits_4(tmp_path):
    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 8},
        "carleman": {"N": 3, "condition": "lanczos", "condition_rtol": 1e-300},
    }
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 4
    cols, rows = data_rows(out / "condition.csv")
    assert dict(zip(cols, rows[0]))["converged"] == "false"


def test_gmres_stall_exits_4(tmp_path):
    # a growing trajectory leaves a nonzero floating-point residual that
    # an impossible tolerance can never reach
    cfg = {
        "model": {"mode": "scalar", "terms": [[0, 0, 0.1], [1, 0, -0.5], [2, 0, 0.1]]},
        "window": {"x_T": 0.8, "t_start": 0.6, "t_end": 0.05, "M": 6},
        "carleman": {"N": 3, "solver": "gmres", "gmres_tol": 1e-30},
    }
    code, _ = run(tmp_path, "carleman", cfg)
    assert code == 4


def test_carleman_solvers_agree(tmp_path):
    base = {"window": {"benchmark": "weak_quadratic", "M": 8}, "carleman": {"N": 3}}
    code_f, out_f = run(tmp_path, "carleman", base, out="fw")
    gm = {**base, "carleman": {**base["carleman"], "solver": "gmres"}}
    code_g, out_g = run(tmp_path, "carleman", gm, out="gm")
    assert code_f == 0 and code_g == 0
    cols, rows_f = data_rows(out_f / "summary.csv")
    _, rows_g = data_rows(out_g / "summary.csv")
    xf = float(dict(zip(cols, rows_f[0]))["x_end_0"])
    xg = float(dict(zip(cols, rows_g[0]))["x_end_0"])
    assert xf == pytest.approx(xg, abs=1e-8)
    eq = float(dict(zip(cols, rows_f[0]))["equivalence"])
    assert eq < 1e-10
    assert (out_f / "condition.csv").exists()


def test_carleman_matrix_export_round_trips(tmp_path):
    from carlift.system import import_matrix

    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 4},
        "carleman": {"N": 2, "export_matrix": True},
    }
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 0
    mat = import_matrix(out / "matrix.txt")
    cols, rows = data_rows(out / "summary.csv")
    dim = int(dict(zip(cols, rows[0]))["dim"])
    assert mat.shape == (dim, dim)


def test_lchs_command(tmp_path):
    cfg = {
        "lchs": {
            "A": [[2.0, 1.0], [1.0, 3.0]],
            "b": [1.0, 0.5],
            "u0": [1.0, -0.5],
            "T": 1.0,
        }
    }
    code, out = run(tmp_path, "lchs", cfg)
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    row = dict(zip(cols, rows[0]))
    assert float(row["error"]) < 1e-3
    assert int(row["n_exponentials"]) == 257


def test_diagnose_command_tracks_decay(tmp_path):
    cfg = {"window": {"benchmark": "dissipative_linear", "M": 12}}
    code, out = run(tmp_path, "diagnose", cfg)
    assert code == 0
    cols, rows = data_rows(out / "ptrace.csv")
    p_idx = cols.index("P")
    a_idx = cols.index("a_0")
    P = np.array([float(r[p_idx]) for r in rows])
    a = np.array([float(r[a_idx]) for r in rows])
    assert np.all(np.diff(P) <= 0)
    assert a.min() > 0 and a.max() == 1.0
    sum_cols, sum_rows = data_rows(out / "summary.csv")
    assert dict(zip(sum_cols, sum_rows[0]))["flagged"] == "false"


def test_readout_command_defaults(tmp_path):
    cfg = {"readout": {"r": 2, "dim": 64, "trials": 5, "amp_shots": 512}}
    code, out = run(tmp_path, "readout", cfg)
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    row = dict(zip(cols, rows[0]))
    assert int(row["shots"]) == math.ceil(20 * 2 * math.log(2))
    assert int(row["successes"]) == 5
    assert float(row["l2_err"]) < 0.25


def test_rerun_is_byte_identical(tmp_path):
    _, out1 = run(tmp_path, "simulate", SIM_CFG, out="r1")
    _, out2 = run(tmp_path, "simulate", SIM_CFG, out="r2")
    for name in ("summary.csv", "trajectory.csv", "resolved_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


SWEEP_CFG = {
    "window": {"benchmark": "linear", "M": 8},
    "sweep": {
        "command": "simulate",
        "parameter": "window.M",
        "values": [8, 16, 32],
        "slope": True,
    },
}


def test_sweep_merge_order_slope_and_concurrency(tmp_path):
    code1, out1 = run(tmp_path, "sweep", SWEEP_CFG, out="w1")
    cfg2 = {**SWEEP_CFG, "sweep": {**SWEEP_CFG["sweep"], "workers": 3}}
    code2, out2 = run(tmp_path, "sweep", cfg2, out="w2")
    assert code1 == 0 and code2 == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "resolved_config.json").read_bytes() == (
        out2 / "resolved_config.json"
    ).read_bytes()
    assert not (out1 / "points").exists()

    cols, rows = data_rows(out1 / "sweep.csv")
    assert cols[:2] == ["parameter", "value"]
    assert [r[1] for r in rows[:3]] == ["8", "16", "32"]
    assert rows[3][1] == "slope"
    slope = float(rows[3][2])
    assert 0.7 < slope < 1.3


def test_sweep_point_matches_single_run(tmp_path):
    single = {"window": {"benchmark": "weak_quadratic", "M": 16}, "simulate": {"order": 2}}
    _, out_s = run(tmp_path, "simulate", single, out="one")
    sweep = {
        **single,
        "sweep": {"command": "simulate", "parameter": "window.M", "values": [16]},
    }
    _, out_w = run(tmp_path, "sweep", sweep, out="many")
    _, srows = data_rows(out_s / "summary.csv")
    _, wrows = data_rows(out_w / "sweep.csv")
    assert ",".join(wrows[0][2:]) == ",".join(srows[0])


def test_sweep_unknown_parameter_path(tmp_path):
    cfg = {
        "window": {"benchmark": "linear"},
        "sweep": {"command": "simulate", "parameter": "window.steps", "values": [4]},
    }
    code, _ = run(tmp_path, "sweep", cfg)
    assert code == 2


def test_seed_flag_overrides_config(tmp_path):
    cfg = {"readout": {"r": 2, "dim": 64, "trials": 3, "amp_shots": 256}}
    code, out = run(tmp_path, "readout", cfg, extra=("--seed", "17"))
    assert code == 0
    canon = json.loads((out / "resolved_config.json").read_text())
    assert canon["seed"] == 17
