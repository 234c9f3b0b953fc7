"""Schema behavior of the run-configuration documents."""

import json

import numpy as np
import pytest

from urnlab.config import load_config, validate_config
from urnlab.errors import ConfigError
from urnlab.gauss import GaussProcessSpec
from urnlab.golden import (InverseSqrtLogLogRemainder, InverseSqrtLogRemainder,
                           LogDampedDrift)
from urnlab.sa import LinearDrift, SAProcessSpec
from urnlab.urn import BernoulliDiagonalRule, DeterministicRule, UrnSpec

MINIMAL_SA = {"model": {"kind": "sa", "d": 1, "drift": [[1.0]],
                        "theta0": [0.0]}}

FRIEDMAN = {"model": {"kind": "urn", "d": 2, "Y0": [1.0, 1.0],
                      "adding_rule": {"name": "deterministic",
                                      "matrix": [[0.0, 1.0], [1.0, 0.0]]}}}


def test_minimal_sa_defaults():
    cfg = validate_config(MINIMAL_SA)
    assert cfg.run == {"n": None, "replicates": 1, "seed": 0,
                       "checkpoints": {"dyadic_from": 1}}
    assert cfg.analysis == {"rho_tol": 1e-9,
                            "tolerances": {"rel_frobenius": 0.15,
                                           "p_min": 0.005},
                            "chain_basis": None}
    assert cfg.output == {"dir": "out", "formats": ["json", "csv"]}
    assert cfg.explicit == frozenset()
    assert cfg.model["noise"] is None
    assert cfg.model["remainder"] is None
    assert cfg.model["theta_star"] is None


def test_empty_document_is_valid():
    cfg = validate_config({})
    assert cfg.model is None
    assert cfg.run["seed"] == 0


@pytest.mark.parametrize("key", ["run", "analysis", "output"])
def test_null_section_takes_defaults_and_a_non_object_fails(key):
    cfg = validate_config(dict(MINIMAL_SA, **{key: None}))
    assert getattr(cfg, key) == getattr(validate_config(MINIMAL_SA), key)
    for bad in ([], 0, False, ""):
        with pytest.raises(ConfigError) as exc:
            validate_config(dict(MINIMAL_SA, **{key: bad}))
        assert exc.value.path == f"/{key}"


def test_unknown_top_level_key_names_pointer():
    with pytest.raises(ConfigError, match=r'"/modle"') as exc:
        validate_config({"modle": {}})
    assert exc.value.path == "/modle"


def test_unknown_nested_key():
    doc = {"model": dict(MINIMAL_SA["model"], shape=3)}
    with pytest.raises(ConfigError, match="/model/shape"):
        validate_config(doc)


def test_pointer_escapes_slash_in_key():
    with pytest.raises(ConfigError) as exc:
        validate_config({"a/b": 1})
    assert exc.value.path == "/a~1b"


def test_model_requires_kind_and_d():
    with pytest.raises(ConfigError, match="/model/kind"):
        validate_config({"model": {"d": 1}})
    with pytest.raises(ConfigError, match="/model/d"):
        validate_config({"model": {"kind": "sa"}})
    with pytest.raises(ConfigError, match="/model/kind"):
        validate_config({"model": {"kind": "markov", "d": 1}})


def test_bool_is_not_a_number():
    doc = {"model": dict(MINIMAL_SA["model"], drift=[[True]])}
    with pytest.raises(ConfigError, match="/model/drift/0/0"):
        validate_config(doc)


def test_ragged_matrix_row_names_its_index():
    doc = {"model": {"kind": "sa", "d": 2,
                     "drift": [[1.0, 0.0], [1.0]], "theta0": [0.0, 0.0]}}
    with pytest.raises(ConfigError, match="/model/drift/1"):
        validate_config(doc)


def test_matrix_dimension_must_match_d():
    doc = {"model": {"kind": "sa", "d": 2, "drift": [[0.0, 1.0]],
                     "theta0": [0.0, 0.0]}}
    with pytest.raises(ConfigError, match="square 2x2"):
        validate_config(doc)
    doc = {"model": dict(FRIEDMAN["model"])}
    doc["model"]["adding_rule"] = {"name": "deterministic",
                                   "matrix": [[0.0, 1.0]]}
    with pytest.raises(ConfigError, match="/model/adding_rule/matrix"):
        validate_config(doc)


def test_vector_length_checked():
    doc = {"model": dict(MINIMAL_SA["model"], theta0=[0.0, 0.0])}
    with pytest.raises(ConfigError, match="/model/theta0"):
        validate_config(doc)


def test_damped_drift_builtin():
    doc = {"model": {"kind": "sa", "d": 1,
                     "drift": {"name": "log-damped-decay", "rho": 0.5},
                     "theta0": [0.1]}}
    spec = validate_config(doc).build_model()
    assert isinstance(spec.drift, LogDampedDrift)
    assert spec.drift.rho == 0.5


def test_damped_drift_needs_dimension_one():
    doc = {"model": {"kind": "sa", "d": 2,
                     "drift": {"name": "log-damped-decay", "rho": 0.5},
                     "theta0": [0.1, 0.1]}}
    with pytest.raises(ConfigError, match="/model/drift"):
        validate_config(doc)


def test_damped_drift_rho_range():
    for rho in [0.0, 0.6, -0.1]:
        doc = {"model": {"kind": "sa", "d": 1,
                         "drift": {"name": "log-damped-decay", "rho": rho},
                         "theta0": [0.1]}}
        with pytest.raises(ConfigError, match="/model/drift/rho"):
            validate_config(doc)


def test_unknown_builtin_names_rejected():
    doc = {"model": {"kind": "sa", "d": 1,
                     "drift": {"name": "cubic"}, "theta0": [0.0]}}
    with pytest.raises(ConfigError, match="/model/drift/name"):
        validate_config(doc)
    doc = {"model": dict(MINIMAL_SA["model"],
                         remainder={"name": "harmonic"})}
    with pytest.raises(ConfigError, match="/model/remainder/name"):
        validate_config(doc)


def test_remainder_builtins_build():
    for name, cls in [("inv-sqrt-log", InverseSqrtLogRemainder),
                      ("inv-sqrt-loglog", InverseSqrtLogLogRemainder)]:
        doc = {"model": dict(MINIMAL_SA["model"], remainder={"name": name})}
        spec = validate_config(doc).build_model()
        assert isinstance(spec.remainder, cls)


def test_run_section_explicit_tracking():
    cfg = validate_config({**MINIMAL_SA, "run": {"n": 100, "seed": 5}})
    assert cfg.run["n"] == 100 and cfg.run["seed"] == 5
    assert "/run/n" in cfg.explicit and "/run/seed" in cfg.explicit
    assert "/run/replicates" not in cfg.explicit


def test_run_bounds():
    with pytest.raises(ConfigError, match="/run/n"):
        validate_config({**MINIMAL_SA, "run": {"n": 0}})
    with pytest.raises(ConfigError, match="/run/seed"):
        validate_config({**MINIMAL_SA, "run": {"seed": -1}})
    with pytest.raises(ConfigError, match="/run/replicates"):
        validate_config({**MINIMAL_SA, "run": {"replicates": 0}})


def test_checkpoints_explicit_form():
    with pytest.raises(ConfigError, match="strictly increasing"):
        validate_config({**MINIMAL_SA, "run": {"checkpoints": [5, 3]}})
    with pytest.raises(ConfigError, match="<= n"):
        validate_config({**MINIMAL_SA,
                         "run": {"n": 100, "checkpoints": [3, 200]}})
    cfg = validate_config({**MINIMAL_SA,
                           "run": {"n": 100, "checkpoints": [0, 10, 100]}})
    assert cfg.checkpoint_plan() == [0, 10, 100]


def test_checkpoints_dyadic_plan():
    cfg = validate_config({**MINIMAL_SA,
                           "run": {"n": 40,
                                   "checkpoints": {"dyadic_from": 4}}})
    assert cfg.checkpoint_plan() == [4, 8, 16, 32, 40]
    # default anchor 1; a power-of-two horizon needs no extra endpoint
    cfg = validate_config({**MINIMAL_SA, "run": {"n": 8}})
    assert cfg.checkpoint_plan() == [1, 2, 4, 8]
    cfg = validate_config({**MINIMAL_SA, "run": {"n": 10}})
    assert cfg.checkpoint_plan() == [1, 2, 4, 8, 10]


def test_dyadic_anchor_above_horizon_keeps_endpoint():
    cfg = validate_config({**MINIMAL_SA,
                           "run": {"n": 10,
                                   "checkpoints": {"dyadic_from": 64}}})
    assert cfg.checkpoint_plan() == [10]


def test_checkpoint_plan_needs_n():
    with pytest.raises(ConfigError, match="/run/n"):
        validate_config(MINIMAL_SA).checkpoint_plan()


def test_analysis_knobs():
    cfg = validate_config({**MINIMAL_SA,
                           "analysis": {"rho_tol": 1e-6,
                                        "tolerances": {"p_min": 0.01}}})
    assert cfg.analysis["rho_tol"] == 1e-6
    assert cfg.analysis["tolerances"] == {"rel_frobenius": 0.15,
                                          "p_min": 0.01}
    with pytest.raises(ConfigError, match="/analysis/tolerances/ks"):
        validate_config({**MINIMAL_SA, "analysis": {"tolerances": {"ks": 1}}})
    with pytest.raises(ConfigError, match="/analysis/tolerances/p_min"):
        validate_config({**MINIMAL_SA,
                         "analysis": {"tolerances": {"p_min": 1.0}}})


def test_chain_basis_needs_model_and_dimension():
    doc = {"model": {"kind": "sa", "d": 2, "drift": [[0.5, -1.0], [0.0, 0.5]],
                     "theta0": [0.0, 0.0]},
           "analysis": {"chain_basis": [[1.0, 0.0], [0.0, -1.0]]}}
    cfg = validate_config(doc)
    assert cfg.analysis["chain_basis"] == [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ConfigError, match="/analysis/chain_basis"):
        validate_config({"analysis": {"chain_basis": [[1.0]]}})
    doc["analysis"]["chain_basis"] = [[1.0]]
    with pytest.raises(ConfigError, match="square 2x2"):
        validate_config(doc)


GAUSS = {"model": {"kind": "gauss", "d": 2, "H": [[1.0, 0.0], [0.0, 1.0]],
                   "gamma": [[1.0, 0.0], [0.0, 1.0]], "grid": [1.0, 2.0]}}
ODE = {"model": {"kind": "ode", "d": 2, "H": [[0.0, 1.0], [1.0, 0.0]],
                 "theta0": [0.5, 0.5]}}
DAMPED = {"model": {"kind": "sa", "d": 1, "theta0": [0.001],
                    "drift": {"name": "log-damped-decay", "rho": 0.5}}}
BASIS = [[1.0, 0.0], [0.0, -1.0]]


@pytest.mark.parametrize("doc, key, value", [
    (FRIEDMAN, "chain_basis", BASIS),
    (GAUSS, "tolerances", {"p_min": 0.01}),
    (ODE, "rho_tol", 1e-6),
    (ODE, "tolerances", {"p_min": 0.01}),
    (ODE, "chain_basis", BASIS),
    # analyze and verify refuse the non-linear drift; simulate reads no key
    (DAMPED, "rho_tol", 0.3),
    (DAMPED, "tolerances", {"p_min": 0.5}),
    (DAMPED, "chain_basis", [[2.0]]),
])
def test_analysis_key_no_command_reads_is_rejected(doc, key, value):
    with pytest.raises(ConfigError, match=f"/analysis/{key}") as exc:
        validate_config({**doc, "analysis": {key: value}})
    assert exc.value.path == f"/analysis/{key}"
    assert doc["model"]["kind"] in str(exc.value)
    if doc is DAMPED:
        assert "log-damped-decay" in str(exc.value)


@pytest.mark.parametrize("key, value", [
    ("rho_tol", 0.1), ("tolerances", {"p_min": 0.5})])
def test_analysis_key_without_a_model_is_rejected(key, value):
    # only the suite runs without a model, and it reads no analysis key
    with pytest.raises(ConfigError, match=f"/analysis/{key}") as exc:
        validate_config({"analysis": {key: value}})
    assert exc.value.path == f"/analysis/{key}"
    assert "without a model" in str(exc.value)


def test_documents_without_a_model_still_load():
    assert validate_config({}).model is None
    cfg = validate_config({"run": {"n": 100, "seed": 3},
                           "analysis": {"chain_basis": None}})
    assert cfg.run["n"] == 100 and cfg.analysis["chain_basis"] is None


@pytest.mark.parametrize("doc, keys", [
    (FRIEDMAN, {"rho_tol": 1e-6, "tolerances": {"p_min": 0.01}}),
    (GAUSS, {"rho_tol": 1e-6, "chain_basis": BASIS}),
])
def test_analysis_keys_a_command_reads_are_kept(doc, keys):
    cfg = validate_config({**doc, "analysis": keys})
    assert cfg.analysis["rho_tol"] == 1e-6


def test_output_section():
    cfg = validate_config({**MINIMAL_SA,
                           "output": {"dir": "artifacts",
                                      "formats": ["csv"]}})
    assert cfg.output == {"dir": "artifacts", "formats": ["csv"]}
    with pytest.raises(ConfigError, match="/output/formats/0"):
        validate_config({**MINIMAL_SA, "output": {"formats": ["xml"]}})
    with pytest.raises(ConfigError, match="/output/formats"):
        validate_config({**MINIMAL_SA, "output": {"formats": []}})
    with pytest.raises(ConfigError, match="distinct"):
        validate_config({**MINIMAL_SA,
                         "output": {"formats": ["json", "json"]}})
    with pytest.raises(ConfigError, match="/output/dir"):
        validate_config({**MINIMAL_SA, "output": {"dir": 7}})


def test_digest_ignores_output_location():
    a = validate_config(MINIMAL_SA)
    b = a.with_output(dir="elsewhere", formats=["csv"])
    assert a.digest() == b.digest()
    assert a.with_seed(1).digest() != a.with_seed(2).digest()


def test_with_seed_is_immutable_and_validates():
    cfg = validate_config(MINIMAL_SA)
    c2 = cfg.with_seed(9)
    assert cfg.run["seed"] == 0
    assert c2.run["seed"] == 9 and "/run/seed" in c2.explicit
    with pytest.raises(ConfigError):
        cfg.with_seed(-1)
    with pytest.raises(ConfigError):
        cfg.with_output(formats=["tsv"])


@pytest.mark.parametrize("seed, expected", [
    (-1, "an integer >= 0"), (True, "an integer"), (1.5, "an integer")])
def test_with_seed_checks_as_the_run_section_does(seed, expected):
    with pytest.raises(ConfigError) as exc:
        validate_config(MINIMAL_SA).with_seed(seed)
    assert exc.value.path == "/run/seed"
    assert str(exc.value) == f'"/run/seed": expected {expected}, got {seed!r}'


def test_with_output_checks_formats_as_the_output_section_does():
    cfg = validate_config(MINIMAL_SA)
    for formats in (["json", "json"], [], ["tsv"]):
        with pytest.raises(ConfigError) as via_override:
            cfg.with_output(formats=formats)
        with pytest.raises(ConfigError) as via_document:
            validate_config({**MINIMAL_SA, "output": {"formats": formats}})
        assert str(via_override.value) == str(via_document.value)
        assert via_override.value.path == via_document.value.path
    with pytest.raises(ConfigError, match="distinct format names"):
        cfg.with_output(formats=["json", "json"])
    assert cfg.with_output(formats=["csv", "json"]).output["formats"] == [
        "csv", "json"]


def test_build_sa_model():
    doc = {"model": {"kind": "sa", "d": 2,
                     "drift": [[0.5, -1.0], [0.0, 0.5]],
                     "theta0": [0.0, 0.0],
                     "noise": [[1.0, 0.0], [0.0, 0.0]],
                     "theta_star": [0.0, 0.0]}}
    spec = validate_config(doc).build_model()
    assert isinstance(spec, SAProcessSpec)
    assert isinstance(spec.drift, LinearDrift)
    assert np.array_equal(spec.drift.matrix, [[0.5, -1.0], [0.0, 0.5]])
    assert np.allclose(spec.noise.gamma, [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(spec.theta_star, [0.0, 0.0])


def test_build_urn_models():
    spec = validate_config(FRIEDMAN).build_model()
    assert isinstance(spec, UrnSpec)
    # H and V_q are the rule's: the matrix itself, with no covariance
    assert np.array_equal(spec.adding_rule.mean, [[0.0, 1.0], [1.0, 0.0]])
    assert spec.adding_rule.V_q is None

    doc = {"model": {"kind": "urn", "d": 2, "Y0": [1.0, 1.0],
                     "adding_rule": {"name": "bernoulli-diagonal"}}}
    spec = validate_config(doc).build_model()
    assert isinstance(spec.adding_rule, BernoulliDiagonalRule)
    assert spec.adding_rule.p == 0.5 and spec.adding_rule.scale == 2.0
    assert np.array_equal(spec.adding_rule.mean, np.eye(2))
    assert [V.tolist() for V in spec.adding_rule.V_q] == [
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]


@pytest.mark.parametrize("key,value", [
    ("generating_matrix", [[0.0, 1.0], [1.0, 0.0]]),
    ("V_q", "estimate"),
    ("V_q", [[[0.0, 0.0], [0.0, 0.0]]] * 2),
])
def test_urn_law_keys_beside_the_rule_are_unknown(key, value):
    # H and V_q come from the adding rule alone
    with pytest.raises(ConfigError, match=f'unknown key "/model/{key}"') as exc:
        validate_config({"model": dict(FRIEDMAN["model"], **{key: value})})
    assert exc.value.path == f"/model/{key}"


@pytest.mark.parametrize("rule,pointer", [
    ({"p": 0.0}, "/model/adding_rule/p"),
    ({"p": 1.0}, "/model/adding_rule/p"),
    ({"scale": 0.0}, "/model/adding_rule/scale"),
    ({"scale": "2"}, "/model/adding_rule/scale"),
])
def test_bernoulli_diagonal_rule_validates_p_and_scale(rule, pointer):
    doc = {"model": {"kind": "urn", "d": 2, "Y0": [1.0, 1.0],
                     "adding_rule": dict(rule, name="bernoulli-diagonal")}}
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert exc.value.path == pointer


def test_build_gauss_model_and_grid_rules():
    doc = {"model": {"kind": "gauss", "d": 1, "H": [[1.0]],
                     "gamma": [[2.0]], "grid": [1.0, 4.0, 9.0]}}
    spec = validate_config(doc).build_model()
    assert isinstance(spec, GaussProcessSpec)
    assert np.allclose(spec.gamma(), [[2.0]])
    assert np.array_equal(spec.grid, [1.0, 4.0, 9.0])
    with pytest.raises(ConfigError, match="/model/grid/0"):
        validate_config({"model": {"kind": "gauss", "d": 1, "H": [[1.0]],
                                   "gamma": [[1.0]], "grid": [2.0, 4.0]}})
    with pytest.raises(ConfigError, match="/model/grid"):
        validate_config({"model": {"kind": "gauss", "d": 1, "H": [[1.0]],
                                   "gamma": [[1.0]], "grid": [1.0, 1.0]}})


def test_build_ode_model():
    doc = {"model": {"kind": "ode", "d": 2, "H": [[0.0, 1.0], [1.0, 0.0]],
                     "theta0": [0.5, 0.5]}}
    prob = validate_config(doc).build_model()
    assert set(prob) == {"H", "theta0"}
    assert np.array_equal(prob["H"], [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(prob["theta0"], [0.5, 0.5])


def test_build_without_model_raises():
    with pytest.raises(ConfigError, match="/model"):
        validate_config({}).build_model()


def test_load_config_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "model": ]\n}')
    with pytest.raises(ConfigError, match="line 2, column 12"):
        load_config(str(path))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MINIMAL_SA, "run": {"n": 10}}))
    assert load_config(str(path)) == validate_config(
        {**MINIMAL_SA, "run": {"n": 10}})
