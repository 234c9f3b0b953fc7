"""End-to-end behavior of the command-line interface.

Everything runs in-process through main() except one subprocess smoke
test of the module entry point. The suite subcommand is exercised by the
acceptance tests, where its byte-determinism contract is checked across
processes.
"""

import json
import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from urnlab import cli, ode
from urnlab.asymptotics import classify_regime
from urnlab.cli import main
from urnlab.errors import ConfigError

SA_MODEL = {"kind": "sa", "d": 1, "drift": [[1.0]], "theta0": [0.0],
            "noise": [[1.0]]}

FRIEDMAN_MODEL = {"kind": "urn", "d": 2, "Y0": [1.0, 1.0],
                  "adding_rule": {"name": "deterministic",
                                  "matrix": [[0.0, 1.0], [1.0, 0.0]]}}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_friedman_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": FRIEDMAN_MODEL})
    out = tmp_path / "art"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "analyze.json").read_text())
    assert rep["regime"] == "standard"
    assert rep["lambda_sec"] == -1.0
    S = np.array(rep["sigma_tilde"], dtype=float)
    assert np.allclose(S, S.T)
    assert np.linalg.eigvalsh(S).min() >= -1e-12
    assert rep["provenance"]["tool"] == "urnlab"
    assert rep["provenance"]["tool_version"]
    assert len(rep["provenance"]["config_digest"]) == 64
    # csv side artifact: the covariance matrix, one row per dimension
    lines = (out / "covariance.csv").read_text().splitlines()
    assert len(lines) == 4 and all(len(l.split(",")) == 4 for l in lines)
    assert "analyze.json" in capsys.readouterr().out


def test_analyze_critical_chain_model(tmp_path):
    doc = {"model": {"kind": "sa", "d": 2,
                     "drift": [[0.5, -1.0], [0.0, 0.5]],
                     "theta0": [0.0, 0.0],
                     "noise": [[1.0, 0.0], [0.0, 0.0]]},
           "analysis": {"chain_basis": [[1.0, 0.0], [0.0, -1.0]]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "art"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "analyze.json").read_text())
    assert rep["regime"] == "critical"
    assert np.allclose(rep["covariance"], [[0.0, 0.0], [0.0, 1.0 / 3.0]],
                       atol=1e-12)


def test_analyze_slow_regime_descriptor(tmp_path):
    doc = {"model": dict(SA_MODEL, drift=[[0.3]])}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "art"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "analyze.json").read_text())
    assert rep["regime"] == "slow"
    assert rep["covariance"] is None
    assert rep["slow_descriptor"]["rho"] == 0.3
    assert rep["as_rate_exponent"] == 0.3
    assert not (out / "covariance.csv").exists()


def test_simulate_deterministic_artifacts(tmp_path):
    doc = {"model": SA_MODEL,
           "run": {"n": 64, "replicates": 2, "checkpoints": [1, 32, 64]}}
    cfg = write_config(tmp_path, doc)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    for name in ["run.json", "trajectory-0.csv", "trajectory-1.csv"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    rows = (a / "trajectory-0.csv").read_text().splitlines()
    assert rows[0] == "n,theta_1" and len(rows) == 4
    assert main(["simulate", "--config", cfg, "--out", str(c),
                 "--seed", "7"]) == 0
    assert ((a / "trajectory-0.csv").read_bytes()
            != (c / "trajectory-0.csv").read_bytes())
    manifest = json.loads((a / "run.json").read_text())
    assert manifest["checkpoints"] == [1, 32, 64]
    assert manifest["engine"] == {"name": "linear", "fallback": None,
                                  "dropped": []}
    assert manifest["files"] == ["trajectory-0.csv", "trajectory-1.csv"]
    assert len(manifest["trajectories"]) == 2


def test_simulate_format_selection(tmp_path):
    doc = {"model": SA_MODEL, "run": {"n": 8}}
    cfg = write_config(tmp_path, doc)
    j, c = tmp_path / "j", tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(j),
                 "--format", "json"]) == 0
    assert not list(j.glob("*.csv"))
    manifest = json.loads((j / "run.json").read_text())
    assert manifest["files"] == []
    assert "trajectories" in manifest
    assert main(["simulate", "--config", cfg, "--out", str(c),
                 "--format", "csv"]) == 0
    assert (c / "trajectory-0.csv").exists()
    manifest = json.loads((c / "run.json").read_text())
    assert "trajectories" not in manifest


@pytest.mark.parametrize("command, model", [("urn", FRIEDMAN_MODEL),
                                            ("simulate", SA_MODEL)])
def test_one_format_writes_what_both_write(tmp_path, command, model):
    # each output is built only for its format, and built the same way
    doc = {"model": model, "run": {"n": 40, "replicates": 3}}
    cfg = write_config(tmp_path, doc)
    out = {f: tmp_path / f for f in ("both", "csv", "json")}
    for f, d in out.items():
        assert main([command, "--config", cfg, "--out", str(d),
                     "--format", f]) == 0
    csvs = sorted(p.name for p in out["both"].glob("*.csv"))
    assert len(csvs) == 3
    assert sorted(p.name for p in out["csv"].glob("*.csv")) == csvs
    for name in csvs:
        assert (out["csv"] / name).read_bytes() == \
            (out["both"] / name).read_bytes()
    both = json.loads((out["both"] / "run.json").read_text())
    alone = json.loads((out["json"] / "run.json").read_text())
    assert alone["trajectories"] == both["trajectories"]
    assert len(alone["trajectories"]) == 3


def test_seed_override_is_checked_as_the_run_section_is(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": SA_MODEL, "run": {"n": 8}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    assert '"/run/seed": expected an integer >= 0, got -1' in \
        capsys.readouterr().err


def test_seed_priority_chain(tmp_path, monkeypatch):
    plain = write_config(tmp_path, {"model": SA_MODEL, "run": {"n": 8}},
                         "plain.json")
    pinned = write_config(tmp_path,
                          {"model": SA_MODEL, "run": {"n": 8, "seed": 3}},
                          "pinned.json")
    out = tmp_path / "o"

    def run_seed(cfg, *extra):
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     *extra]) == 0
        return json.loads((out / "run.json").read_text())["seed"]

    monkeypatch.setenv("URNLAB_SEED", "11")
    assert run_seed(plain) == 11          # env fills the gap
    assert run_seed(pinned) == 3          # file beats env
    assert run_seed(pinned, "--seed", "9") == 9  # flag beats file
    monkeypatch.delenv("URNLAB_SEED")
    assert run_seed(plain) == 0           # nothing set: default


def test_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, {"model": SA_MODEL, "run": {"n": 8}})
    monkeypatch.setenv("URNLAB_SEED", "abc")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "URNLAB_SEED" in capsys.readouterr().err


def test_simulate_divergence_exits_two(tmp_path, capsys):
    model = {k: v for k, v in SA_MODEL.items() if k != "noise"}
    doc = {"model": dict(model, drift=[[-1e300]], theta0=[1.0]),
           "run": {"n": 10}}
    cfg = write_config(tmp_path, doc)
    with np.errstate(over="ignore"):
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert "[divergence]" in capsys.readouterr().err


def test_urn_command_counts_draws(tmp_path):
    doc = {"model": FRIEDMAN_MODEL, "run": {"n": 20, "checkpoints": [5, 20]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["urn", "--config", cfg, "--out", str(out)]) == 0
    engine = json.loads((out / "run.json").read_text())["engine"]
    assert engine == {"name": "urn", "fallback": None, "dropped": []}
    rows = (out / "urn-0.csv").read_text().splitlines()
    assert rows[0] == "n,Y_1,Y_2,N_1,N_2"
    for row in rows[1:]:
        cells = row.split(",")
        n = int(cells[0])
        # one draw per step, one ball added per draw
        assert int(cells[3]) + int(cells[4]) == n
        assert float(cells[1]) + float(cells[2]) == 2.0 + n


def test_gauss_command_grid(tmp_path):
    doc = {"model": {"kind": "gauss", "d": 1, "H": [[1.0]],
                     "gamma": [[1.0]], "grid": [1.0, 4.0, 16.0]},
           "run": {"replicates": 2}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["gauss", "--config", cfg, "--out", str(out)]) == 0
    for r in range(2):
        rows = (out / f"gauss-{r}.csv").read_text().splitlines()
        assert rows[0] == "t,G_1" and len(rows) == 4
        assert [float(row.split(",")[0]) for row in rows[1:]] == [1, 4, 16]
    # value at the origin is the configured start, zero by default
    assert rows[1] == "1,0"


ODE_MODEL = {"kind": "ode", "d": 2, "H": [[0.0, 1.0], [1.0, 0.0]],
             "theta0": [0.9, 0.3]}


def test_ode_command_flow(tmp_path):
    doc = {"model": ODE_MODEL, "run": {"n": 40}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["ode", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["identity_residual"] <= 1e-12
    assert np.allclose(manifest["final_theta"], [0.5, 0.5], atol=1e-6)
    rows = (out / "flow.csv").read_text().splitlines()
    assert rows[0] == "s,f,theta_1,theta_2"
    # the header, the start, then one row per clock step taken
    assert len(rows) == manifest["steps"] + 2
    assert rows[-1].startswith("40,")


def test_ode_command_finds_the_eigenstructure_once(tmp_path, monkeypatch):
    # the flow and its identity check share one urn_eigenstructure of H
    calls = []

    def counted(H, real=cli.urn_eigenstructure):
        calls.append(H)
        return real(H)

    for module in (cli, ode):
        monkeypatch.setattr(module, "urn_eigenstructure", counted)
    cfg = write_config(tmp_path, {"model": ODE_MODEL, "run": {"n": 40}})
    assert main(["ode", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_ode_refuses_a_negative_start_and_a_tolerance(tmp_path, capsys):
    doc = {"model": dict(ODE_MODEL, theta0=[1.2, -0.1]), "run": {"n": 40}}
    cfg = write_config(tmp_path, doc, "neg.json")
    assert main(["ode", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "theta0[1] = -0.1 is negative" in capsys.readouterr().err
    # the flow is solved in closed form: there is no tolerance to set
    doc = {"model": dict(ODE_MODEL, tol=1e-9), "run": {"n": 40}}
    cfg = write_config(tmp_path, doc, "tol.json")
    assert main(["ode", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "/model/tol" in capsys.readouterr().err


def literal_run(tmp_path, command, doc, first_csv):
    """The first CSV table and run.json of one command, as bytes."""
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--seed", "0"]) == 0
    return ((out / first_csv).read_bytes(),
            (out / "run.json").read_bytes())


def test_simulate_literal_bytes(tmp_path):
    doc = {"model": SA_MODEL,
           "run": {"n": 2, "replicates": 1, "checkpoints": [0, 2]}}
    table, run = literal_run(tmp_path, "simulate", doc, "trajectory-0.csv")
    assert table == b"n,theta_1\n0,0\n2,-1.2878808157398915\n"
    assert run == b"""{
  "checkpoints": [
    0,
    2
  ],
  "command": "simulate",
  "engine": {
    "dropped": [],
    "fallback": null,
    "name": "linear"
  },
  "files": [
    "trajectory-0.csv"
  ],
  "model_digest": "112c491258f4af64e29722cb58e8af0365bec71f9cb96c90310ddd6c4a4413f2",
  "n": 2,
  "provenance": {
    "config_digest": "662ec9b39a37d683b8e7b9df8263978913f0df84f0e6c9456d3e9c330722d4fe",
    "seed": 0,
    "tool": "urnlab",
    "tool_version": "0.1.0"
  },
  "replicates": 1,
  "seed": 0,
  "trajectories": [
    {
      "checkpoints": [
        [
          0,
          [
            0
          ]
        ],
        [
          2,
          [
            -1.2878808157398915
          ]
        ]
      ],
      "replicate": 0
    }
  ]
}
"""


def test_urn_literal_bytes(tmp_path):
    doc = {"model": FRIEDMAN_MODEL, "run": {"n": 2, "replicates": 2}}
    table, run = literal_run(tmp_path, "urn", doc, "urn-0.csv")
    assert table == b"n,Y_1,Y_2,N_1,N_2\n1,1,2,1,0\n2,2,2,1,1\n"
    assert run == b"""{
  "checkpoints": [
    1,
    2
  ],
  "command": "urn",
  "engine": {
    "dropped": [],
    "fallback": null,
    "name": "lockstep-urn"
  },
  "files": [
    "urn-0.csv",
    "urn-1.csv"
  ],
  "n": 2,
  "provenance": {
    "config_digest": "d8910bfca5db4c05f0969f1c30674108d2f5d06b5ed093535346a293e2679ac4",
    "seed": 0,
    "tool": "urnlab",
    "tool_version": "0.1.0"
  },
  "replicates": 2,
  "seed": 0,
  "trajectories": [
    {
      "checkpoints": [
        {
          "N": [
            1,
            0
          ],
          "Y": [
            1,
            2
          ],
          "n": 1
        },
        {
          "N": [
            1,
            1
          ],
          "Y": [
            2,
            2
          ],
          "n": 2
        }
      ],
      "replicate": 0
    },
    {
      "checkpoints": [
        {
          "N": [
            1,
            0
          ],
          "Y": [
            1,
            2
          ],
          "n": 1
        },
        {
          "N": [
            2,
            0
          ],
          "Y": [
            1,
            3
          ],
          "n": 2
        }
      ],
      "replicate": 1
    }
  ]
}
"""


def test_gauss_literal_bytes(tmp_path):
    doc = {"model": {"kind": "gauss", "d": 1, "H": [[1.0]],
                     "gamma": [[1.0]], "grid": [1.0, 2.0]},
           "run": {"replicates": 1}}
    table, run = literal_run(tmp_path, "gauss", doc, "gauss-0.csv")
    assert table == b"t,G_1\n1,0\n2,-0.77059130361153605\n"
    assert run == b"""{
  "command": "gauss",
  "files": [
    "gauss-0.csv"
  ],
  "grid": [
    1,
    2
  ],
  "paths": [
    {
      "path": [
        [
          1,
          [
            0
          ]
        ],
        [
          2,
          [
            -0.77059130361153605
          ]
        ]
      ],
      "replicate": 0
    }
  ],
  "provenance": {
    "config_digest": "ac27d0eda256722367486e222c276e5abe6912e86f7774efa2c2a56f5145193e",
    "seed": 0,
    "tool": "urnlab",
    "tool_version": "0.1.0"
  },
  "replicates": 1,
  "seed": 0
}
"""


def test_ode_literal_bytes(tmp_path):
    doc = {"model": ODE_MODEL, "run": {"n": 1}}
    table, run = literal_run(tmp_path, "ode", doc, "flow.csv")
    assert table == (b"s,f,theta_1,theta_2\n"
                     b"0,0,0.90000000000000002,0.29999999999999999\n"
                     b"1,0.88867347139095654,0.58216964698428986,"
                     b"0.49140624124999838\n")
    assert run == b"""{
  "command": "ode",
  "files": [
    "flow.csv"
  ],
  "final_theta": [
    0.58216964698428986,
    0.49140624124999838
  ],
  "identity_residual": 0,
  "provenance": {
    "config_digest": "6b1ebcccda70cca5057ba0e847723e7b3f7012d67eda8c50a47edd82c65c1a3d",
    "seed": 0,
    "tool": "urnlab",
    "tool_version": "0.1.0"
  },
  "s_max": 1,
  "states": [
    {
      "f": 0,
      "s": 0,
      "theta": [
        0.90000000000000002,
        0.29999999999999999
      ]
    },
    {
      "f": 0.88867347139095654,
      "s": 1,
      "theta": [
        0.58216964698428986,
        0.49140624124999838
      ]
    }
  ],
  "steps": 1
}
"""


def test_verify_standard_sa_passes(tmp_path):
    doc = {"model": SA_MODEL, "run": {"n": 2000, "replicates": 400}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["predicted_cov"] == [[1.0]]
    assert rep["verdict"]["passed"] is True
    assert rep["rel_frobenius"] < 0.15
    samples = (out / "samples.csv").read_text().splitlines()
    assert len(samples) == 400


def test_verify_urn_against_lyapunov(tmp_path):
    doc = {"model": FRIEDMAN_MODEL, "run": {"n": 5000, "replicates": 400}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["engine"]["name"] == "lockstep-urn"
    assert np.array(rep["predicted_cov"]).shape == (4, 4)
    assert rep["verdict"]["passed"] is True


def test_verify_removal_urn_at_perron_root_two(tmp_path):
    # D removes balls and its row sums differ (1 and 3): the Perron root is
    # 2, and the analysis describes theta = (Y/(2n), N/n) around (v, v);
    # Y/n centred at v would put the Y errors near 50
    model = {"kind": "urn", "d": 2, "Y0": [2.0, 2.0],
             "adding_rule": {"name": "deterministic",
                             "matrix": [[-1.0, 2.0], [3.0, 0.0]]}}
    doc = {"model": model, "run": {"n": 10000, "replicates": 200, "seed": 0}}
    out = tmp_path / "o"
    assert main(["verify", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["engine"]["name"] == "lockstep-urn"
    assert rep["rel_frobenius"] < 0.15
    assert np.abs(rep["empirical_mean"]).max() < 0.2


@pytest.mark.parametrize("model", [
    {"kind": "sa", "d": 2, "drift": [[1.0, 0.3], [0.0, 0.8]],
     "theta0": [0.0, 0.0], "noise": [[1.0, 0.0], [0.0, 1.0]]},
    FRIEDMAN_MODEL,
], ids=["linear", "urn"])
def test_verify_artifacts_do_not_depend_on_threads(tmp_path, model):
    # 100000 is capped at the replicates and the usable CPUs
    cfg = write_config(tmp_path, {"model": model,
                                  "run": {"n": 500, "replicates": 64}})
    blobs, codes = [], []
    for threads in ("1", "2", "100000"):
        out = tmp_path / f"t{threads}"
        codes.append(main(["verify", "--config", cfg, "--out", str(out),
                           "--threads", threads]))
        blobs.append([(out / name).read_bytes()
                      for name in ("verify.json", "samples.csv")])
        assert multiprocessing.active_children() == []
    assert codes[1:] == codes[:-1]
    assert blobs[1] == blobs[0] and blobs[2] == blobs[0]


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_threads_must_be_a_positive_integer(tmp_path, capsys, value):
    cfg = write_config(tmp_path, {"model": SA_MODEL})
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", cfg, "--threads", value])
    assert exc.value.code == 2
    assert "--threads: must be an integer >= 1" in capsys.readouterr().err


def test_verify_failure_exits_one(tmp_path, capsys):
    doc = {"model": SA_MODEL, "run": {"n": 2000, "replicates": 400},
           "analysis": {"tolerances": {"rel_frobenius": 1e-6}}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    rep = json.loads((out / "verify.json").read_text())
    assert rep["verdict"]["passed"] is False
    assert "verify: failed" in capsys.readouterr().err


def test_verify_slow_regime_is_config_error(tmp_path, capsys):
    doc = {"model": dict(SA_MODEL, drift=[[0.3]]),
           "run": {"n": 100, "replicates": 10}}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "slow regime" in capsys.readouterr().err


def test_analyze_bernoulli_diagonal_urn_is_refused(tmp_path, capsys):
    # the rule's mean p*scale*I is diagonal: its top eigenvalue is not simple
    doc = {"model": {"kind": "urn", "d": 2, "Y0": [1.0, 1.0],
                     "adding_rule": {"name": "bernoulli-diagonal",
                                     "p": 0.25, "scale": 3.0}}}
    cfg = write_config(tmp_path, doc)
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error [assumption-violation]" in err
    assert "largest eigenvalue 0.75 is not simple" in err


def diag_model(a):
    return {"kind": "sa", "d": 2, "drift": [[a, 0.0], [0.0, 1.0]],
            "theta0": [0.0, 0.0], "noise": [[1.0, 0.0], [0.0, 1.0]]}


def test_analyze_zero_rho_tol_just_above_half(tmp_path):
    doc = {"model": diag_model(0.5000000005), "analysis": {"rho_tol": 0}}
    out = tmp_path / "art"
    assert main(["analyze", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "analyze.json").read_text())
    assert rep["regime"] == "standard"
    S = np.array(rep["covariance"])
    assert S[0, 0] == pytest.approx(1.0 / (2 * 0.5000000005 - 1.0), rel=1e-6)
    assert S[1, 1] == pytest.approx(1.0)


def test_wide_rho_tol_critical_layer_and_its_scaling(tmp_path):
    # rho = 0.55 is Critical within rho_tol 0.1: the covariance lives on the
    # 0.55 layer, and verify scales the sample by sqrt(n / log n) to match
    doc = {"model": diag_model(0.55), "analysis": {"rho_tol": 0.1},
           "run": {"n": 10000, "replicates": 400}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "art"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "analyze.json").read_text())
    assert rep["regime"] == "critical"
    assert np.allclose(rep["covariance"], [[1.0, 0.0], [0.0, 0.0]])
    main(["verify", "--config", cfg, "--out", str(out)])
    rep = json.loads((out / "verify.json").read_text())
    assert rep["rel_frobenius"] < 1.0
    # the drift-1 coordinate has Var sqrt(n) theta_n -> 1
    assert rep["empirical_cov"][1][1] * math.log(10000) == pytest.approx(
        1.0, rel=0.2)


def test_urn_honours_rho_tol(tmp_path):
    # lambda_sec = 0.45 puts rho = 0.55: Standard by default, Critical in a
    # band of 0.1
    model = {"kind": "urn", "d": 2, "Y0": [1.0, 1.0],
             "adding_rule": {"name": "deterministic",
                             "matrix": [[0.725, 0.275], [0.275, 0.725]]}}
    reps = {}
    for tol in (1e-9, 0.1):
        doc = {"model": model, "analysis": {"rho_tol": tol}}
        out = tmp_path / f"art-{tol}"
        assert main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        reps[tol] = json.loads((out / "analyze.json").read_text())
    assert reps[1e-9]["regime"] == "standard"
    assert reps[0.1]["regime"] == "critical"
    assert reps[0.1]["scaling"] == "√n/(log n)^{1/2}"
    assert np.abs(np.array(reps[0.1]["sigma_tilde"])).max() > 0.0
    assert reps[0.1]["sigma_tilde"] != reps[1e-9]["sigma_tilde"]


@pytest.mark.parametrize("model", [SA_MODEL, FRIEDMAN_MODEL])
def test_verify_decides_the_regime_once(tmp_path, monkeypatch, model):
    # one analysis, whose regime both the prediction and the scaling use
    decisions = []

    def counted(*args, **kwargs):
        decisions.append(args)
        return classify_regime(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("urnlab")
                and getattr(mod, "classify_regime", None) is classify_regime):
            monkeypatch.setattr(mod, "classify_regime", counted)
    doc = {"model": model, "run": {"n": 200, "replicates": 20}}
    main(["verify", "--config", write_config(tmp_path, doc),
          "--out", str(tmp_path / "o")])
    assert len(decisions) == 1


def test_config_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text('{"modle": {}}')
    assert main(["analyze", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "/modle" in capsys.readouterr().err

    urn_cfg = write_config(tmp_path, {"model": FRIEDMAN_MODEL}, "u.json")
    assert main(["simulate", "--config", urn_cfg,
                 "--out", str(tmp_path / "o")]) == 2  # kind mismatch
    assert main(["urn", "--config", urn_cfg,
                 "--out", str(tmp_path / "o")]) == 2  # missing /run/n
    assert 'missing required key "/run/n"' in capsys.readouterr().err


def test_suite_refuses_an_analysis_key_it_does_not_read(tmp_path, capsys):
    doc = {"analysis": {"rho_tol": 0.1, "tolerances": {"p_min": 0.5}}}
    cfg = write_config(tmp_path, doc)
    assert main(["suite", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "/analysis/rho_tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, {"model": FRIEDMAN_MODEL})
    out = tmp_path / "art"
    proc = subprocess.run(
        [sys.executable, "-m", "urnlab", "analyze", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analyze.json" in proc.stdout
    assert json.loads((out / "analyze.json").read_text())["regime"] == "standard"


def test_parser_is_built_once_and_keeps_no_arguments(monkeypatch, capsys):
    seen = []

    def record(args):
        seen.append({k: v for k, v in vars(args).items() if k != "handler"})
        raise ConfigError("stop")

    monkeypatch.setattr(cli, "_resolve", record)
    cli._parser.cache_clear()
    assert main(["verify", "--config", "a.json", "--seed", "3",
                 "--format", "csv", "--threads", "2"]) == 2
    parser = cli._parser()
    assert main(["analyze", "--config", "b.json"]) == 2
    assert main(["suite", "--out", "d"]) == 2
    assert cli._parser() is parser
    assert seen == [
        {"command": "verify", "config": "a.json", "out": None, "seed": 3,
         "threads": 2, "format": "csv"},
        {"command": "analyze", "config": "b.json", "out": None, "seed": None,
         "threads": 1, "format": None},
        {"command": "suite", "config": None, "out": "d", "seed": None,
         "threads": 1, "format": None},
    ]
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "urnlab" in capsys.readouterr().out
