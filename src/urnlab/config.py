"""Run-configuration documents: strict JSON schema with defaults.

A document holds four optional sections. "model" names the process (kind
"sa", "urn", "gauss" or "ode" plus kind-specific fields), "run" the
horizon, replicate count, seed and checkpoint plan, "analysis" the
limit-analysis knobs, "output" the artifact destination. Validation is
strict: any key outside the vocabulary fails with the JSON pointer of the
offender, and the first violation found is the one reported.

Matrices are written as row-major nested arrays and must be square with
the model dimension; noise is given as a covariance matrix and factored
internally.
"""

import copy
import dataclasses
import hashlib
import json
import math

import numpy as np

from .asymptotics import DEFAULT_RHO_TOL
from .errors import ConfigError
from .gauss import GaussProcessSpec
from .golden import (InverseSqrtLogLogRemainder, InverseSqrtLogRemainder,
                     LogDampedDrift)
from .report import canonical_json
from .sa import GaussianNoise, LinearDrift, SAProcessSpec
from .urn import BernoulliDiagonalRule, DeterministicRule, UrnSpec

_KINDS = ("gauss", "ode", "sa", "urn")
_FORMATS = ("csv", "json")


# ==== pointer-tagged failures ====

def _esc(key):
    # RFC 6901 escaping, so a literal "/" in a key stays addressable
    return str(key).replace("~", "~0").replace("/", "~1")


def _describe(x):
    if isinstance(x, dict):
        return f"an object with keys {sorted(x)}"
    if isinstance(x, list):
        return f"an array of length {len(x)}"
    return repr(x)


def _fail(path, expected, got):
    raise ConfigError(f'"{path or "/"}": expected {expected}, got {_describe(got)}',
                      path=path, expected=expected, got=got)


def _object(x, path):
    if not isinstance(x, dict):
        _fail(path, "an object", x)
    return x


def _reject_unknown(obj, path, known):
    for key in obj:
        if key not in known:
            p = f"{path}/{_esc(key)}"
            raise ConfigError(f'unknown key "{p}"', path=p,
                              expected=f"one of {sorted(known)}", got=key)


def _require(obj, key, path):
    if key not in obj:
        p = f"{path}/{_esc(key)}"
        raise ConfigError(f'missing required key "{p}"', path=p,
                          expected="a value", got=None)
    return obj[key]


def _int(x, path, lo=None, hi=None):
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, "an integer", x)
    if lo is not None and x < lo:
        _fail(path, f"an integer >= {lo}", x)
    if hi is not None and x > hi:
        _fail(path, f"an integer <= {hi}", x)
    return int(x)


def _number(x, path, lo=None, lo_open=False, hi=None, hi_open=False):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(path, "a number", x)
    v = float(x)
    if not math.isfinite(v):
        _fail(path, "a finite number", x)
    if lo is not None and (v <= lo if lo_open else v < lo):
        _fail(path, f"a number {'>' if lo_open else '>='} {lo}", x)
    if hi is not None and (v >= hi if hi_open else v > hi):
        _fail(path, f"a number {'<' if hi_open else '<='} {hi}", x)
    return v


def _string(x, path, choices=None):
    if not isinstance(x, str):
        _fail(path, "a string", x)
    if choices is not None and x not in choices:
        _fail(path, f"one of {sorted(choices)}", x)
    return x


def _vector(x, path, length):
    if not isinstance(x, list) or len(x) != length:
        _fail(path, f"an array of {length} numbers", x)
    return [_number(v, f"{path}/{i}") for i, v in enumerate(x)]


def _matrix(x, path):
    if (not isinstance(x, list) or not x
            or not all(isinstance(r, list) for r in x)):
        _fail(path, "a matrix as an array of row arrays", x)
    width = len(x[0])
    out = []
    for i, row in enumerate(x):
        if len(row) != width:
            _fail(f"{path}/{i}", f"a row of {width} numbers", row)
        out.append([_number(v, f"{path}/{i}/{j}") for j, v in enumerate(row)])
    return out


def _square(x, path, d):
    M = _matrix(x, path)
    if len(M) != d or len(M[0]) != d:
        _fail(path, f"a square {d}x{d} matrix", x)
    return M


# ==== section validators ====

def _validate_model(m):
    path = "/model"
    _object(m, path)
    kind = _string(_require(m, "kind", path), f"{path}/kind", choices=_KINDS)
    d = _int(_require(m, "d", path), f"{path}/d", lo=1)
    out = {"kind": kind, "d": d}

    if kind == "sa":
        _reject_unknown(m, path, {"kind", "d", "drift", "theta0", "noise",
                                  "remainder", "theta_star"})
        drift = _require(m, "drift", path)
        if isinstance(drift, dict):
            _reject_unknown(drift, f"{path}/drift", {"name", "rho"})
            _string(_require(drift, "name", f"{path}/drift"),
                    f"{path}/drift/name", choices=("log-damped-decay",))
            rho = _number(_require(drift, "rho", f"{path}/drift"),
                          f"{path}/drift/rho", lo=0.0, lo_open=True, hi=0.5)
            if d != 1:
                _fail(f"{path}/drift", "a 1-dimensional model for the "
                      "damped-decay drift", drift)
            out["drift"] = {"name": "log-damped-decay", "rho": rho}
        else:
            out["drift"] = _square(drift, f"{path}/drift", d)
        out["theta0"] = _vector(_require(m, "theta0", path),
                                f"{path}/theta0", d)
        out["noise"] = (None if m.get("noise") is None
                        else _square(m["noise"], f"{path}/noise", d))
        rem = m.get("remainder")
        if rem is None:
            out["remainder"] = None
        else:
            _object(rem, f"{path}/remainder")
            _reject_unknown(rem, f"{path}/remainder", {"name"})
            name = _string(_require(rem, "name", f"{path}/remainder"),
                           f"{path}/remainder/name",
                           choices=("inv-sqrt-log", "inv-sqrt-loglog"))
            out["remainder"] = {"name": name}
        out["theta_star"] = (None if m.get("theta_star") is None
                             else _vector(m["theta_star"],
                                          f"{path}/theta_star", d))

    elif kind == "urn":
        _reject_unknown(m, path, {"kind", "d", "Y0", "adding_rule"})
        out["Y0"] = _vector(_require(m, "Y0", path), f"{path}/Y0", d)
        rule = _object(_require(m, "adding_rule", path), f"{path}/adding_rule")
        rp = f"{path}/adding_rule"
        name = _string(_require(rule, "name", rp), f"{rp}/name",
                       choices=("deterministic", "bernoulli-diagonal"))
        if name == "deterministic":
            _reject_unknown(rule, rp, {"name", "matrix"})
            out["adding_rule"] = {
                "name": name,
                "matrix": _square(_require(rule, "matrix", rp),
                                  f"{rp}/matrix", d)}
        else:
            _reject_unknown(rule, rp, {"name", "p", "scale"})
            p = _number(rule.get("p", 0.5), f"{rp}/p",
                        lo=0.0, lo_open=True, hi=1.0, hi_open=True)
            scale = _number(rule.get("scale", 2.0), f"{rp}/scale",
                            lo=0.0, lo_open=True)
            out["adding_rule"] = {"name": name, "p": p, "scale": scale}

    elif kind == "gauss":
        _reject_unknown(m, path, {"kind", "d", "H", "gamma", "G1", "grid"})
        out["H"] = _square(_require(m, "H", path), f"{path}/H", d)
        out["gamma"] = _square(_require(m, "gamma", path), f"{path}/gamma", d)
        out["G1"] = (_vector(m["G1"], f"{path}/G1", d)
                     if m.get("G1") is not None else [0.0] * d)
        grid = _require(m, "grid", path)
        if not isinstance(grid, list) or not grid:
            _fail(f"{path}/grid", "a nonempty array of times", grid)
        times = [_number(t, f"{path}/grid/{i}") for i, t in enumerate(grid)]
        if times[0] != 1.0:
            _fail(f"{path}/grid/0", "the process origin t = 1", grid[0])
        if any(b <= a for a, b in zip(times, times[1:])):
            _fail(f"{path}/grid", "strictly increasing times", grid)
        out["grid"] = times

    else:  # ode
        _reject_unknown(m, path, {"kind", "d", "H", "theta0"})
        out["H"] = _square(_require(m, "H", path), f"{path}/H", d)
        out["theta0"] = _vector(_require(m, "theta0", path),
                                f"{path}/theta0", d)
    return out


def _validate_run(r, explicit):
    path = "/run"
    _object(r, path)
    _reject_unknown(r, path, {"n", "replicates", "seed", "checkpoints"})
    out = {"n": None, "replicates": 1, "seed": 0,
           "checkpoints": {"dyadic_from": 1}}
    if "n" in r:
        out["n"] = _int(r["n"], f"{path}/n", lo=1)
        explicit.add("/run/n")
    if "replicates" in r:
        out["replicates"] = _int(r["replicates"], f"{path}/replicates", lo=1)
        explicit.add("/run/replicates")
    if "seed" in r:
        out["seed"] = _int(r["seed"], f"{path}/seed", lo=0)
        explicit.add("/run/seed")
    if "checkpoints" in r:
        cp = r["checkpoints"]
        if isinstance(cp, dict):
            _reject_unknown(cp, f"{path}/checkpoints", {"dyadic_from"})
            out["checkpoints"] = {"dyadic_from": _int(
                _require(cp, "dyadic_from", f"{path}/checkpoints"),
                f"{path}/checkpoints/dyadic_from", lo=1)}
        elif isinstance(cp, list) and cp:
            idx = [_int(c, f"{path}/checkpoints/{i}", lo=0)
                   for i, c in enumerate(cp)]
            if any(b <= a for a, b in zip(idx, idx[1:])):
                _fail(f"{path}/checkpoints",
                      "strictly increasing checkpoint indices", cp)
            if out["n"] is not None and idx[-1] > out["n"]:
                _fail(f"{path}/checkpoints",
                      f"checkpoints <= n = {out['n']}", cp)
            out["checkpoints"] = idx
        else:
            _fail(f"{path}/checkpoints",
                  'an index array or {"dyadic_from": n0}', cp)
    return out


# analysis keys some command reads, per model kind; none for an ode flow
_ANALYSIS_READ = {"sa": {"rho_tol", "tolerances", "chain_basis"},
                  "urn": {"rho_tol", "tolerances"},
                  "gauss": {"rho_tol", "chain_basis"}, "ode": set()}


def _validate_analysis(a, model):
    path = "/analysis"
    _object(a, path)
    _reject_unknown(a, path, {"rho_tol", "tolerances", "chain_basis"})
    if model is None:
        # only the suite runs without a model, and it reads no key;
        # chain_basis keeps its own refusal below
        d, read, what = None, {"chain_basis"}, "without a model"
    else:
        kind = model["kind"]
        d, read = model["d"], _ANALYSIS_READ[kind]
        what = f'for a model of kind "{kind}"'
        if kind == "sa" and isinstance(model["drift"], dict):
            # analyze and verify refuse a non-linear drift; simulate reads none
            read = set()
            what += f' with the "{model["drift"]["name"]}" drift'
    for key in a:
        if key not in read:
            raise ConfigError(f'"{path}/{key}" is read by no command {what}',
                              path=f"{path}/{key}")
    out = {"rho_tol": DEFAULT_RHO_TOL,
           "tolerances": {"rel_frobenius": 0.15, "p_min": 0.005},
           "chain_basis": None}
    if "rho_tol" in a:
        out["rho_tol"] = _number(a["rho_tol"], f"{path}/rho_tol", lo=0.0)
    if "tolerances" in a:
        t = _object(a["tolerances"], f"{path}/tolerances")
        _reject_unknown(t, f"{path}/tolerances", {"rel_frobenius", "p_min"})
        if "rel_frobenius" in t:
            out["tolerances"]["rel_frobenius"] = _number(
                t["rel_frobenius"], f"{path}/tolerances/rel_frobenius",
                lo=0.0, lo_open=True)
        if "p_min" in t:
            out["tolerances"]["p_min"] = _number(
                t["p_min"], f"{path}/tolerances/p_min",
                lo=0.0, hi=1.0, hi_open=True)
    if a.get("chain_basis") is not None:
        if d is None:
            raise ConfigError(
                '"/analysis/chain_basis" needs a model to fix its dimension',
                path="/analysis/chain_basis")
        out["chain_basis"] = _square(a["chain_basis"],
                                     f"{path}/chain_basis", d)
    return out


def _validate_output(o):
    path = "/output"
    _object(o, path)
    _reject_unknown(o, path, {"dir", "formats"})
    out = {"dir": "out", "formats": ["json", "csv"]}
    if "dir" in o:
        out["dir"] = _string(o["dir"], f"{path}/dir")
    if "formats" in o:
        out["formats"] = _formats(o["formats"])
    return out


def _formats(f):
    path = "/output/formats"
    if not isinstance(f, list) or not f:
        _fail(path, "a nonempty array of format names", f)
    for i, name in enumerate(f):
        _string(name, f"{path}/{i}", choices=_FORMATS)
    if len(set(f)) != len(f):
        _fail(path, "distinct format names", f)
    return list(f)


# ==== document ====

@dataclasses.dataclass(frozen=True)
class ConfigDocument:
    """Validated document with defaults applied.

    `explicit` records which defaulted run slots were actually present in
    the source; the command layer needs to know whether the file pinned
    its own seed before consulting the environment.
    """

    model: object
    run: dict
    analysis: dict
    output: dict
    explicit: frozenset = frozenset()

    def to_dict(self):
        return copy.deepcopy({"model": self.model, "run": self.run,
                              "analysis": self.analysis,
                              "output": self.output})

    def digest(self):
        """Content hash of the result-determining sections.

        The output section only says where artifacts land, so it stays out
        of the digest; the same run written to two directories produces
        byte-identical reports.
        """
        text = canonical_json({"model": self.model, "run": self.run,
                               "analysis": self.analysis})
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def with_seed(self, seed):
        run = dict(self.run)
        run["seed"] = _int(seed, "/run/seed", lo=0)
        return dataclasses.replace(self, run=run,
                                   explicit=self.explicit | {"/run/seed"})

    def with_output(self, dir=None, formats=None):
        out = dict(self.output)
        if dir is not None:
            out["dir"] = str(dir)
        if formats is not None:
            out["formats"] = _formats(list(formats))
        return dataclasses.replace(self, output=out)

    def checkpoint_plan(self):
        """Concrete index list for the horizon run.n: explicit arrays pass
        through (validation kept them within n), dyadic plans double from
        their anchor and always include the endpoint."""
        n = self.run["n"]
        if n is None:
            raise ConfigError('missing required key "/run/n"', path="/run/n")
        cp = self.run["checkpoints"]
        if isinstance(cp, dict):
            plan = []
            v = cp["dyadic_from"]
            while v <= n:
                plan.append(v)
                v *= 2
            if not plan or plan[-1] != n:
                plan.append(n)
            return plan
        return list(cp)

    def build_model(self):
        """Instantiate the configured process: the library spec object for
        kinds sa/urn/gauss, a dict of arrays {"H", "theta0"} for the ode
        flow (that API takes raw arrays)."""
        if self.model is None:
            raise ConfigError('missing required section "/model"',
                              path="/model")
        m = self.model
        kind = m["kind"]
        if kind == "sa":
            drift = m["drift"]
            if isinstance(drift, dict):
                drift = LogDampedDrift(drift["rho"])
            else:
                drift = LinearDrift(np.array(drift))
            noise = (None if m["noise"] is None
                     else GaussianNoise.from_cov(np.array(m["noise"])))
            rem = m["remainder"]
            if rem is not None:
                rem = {"inv-sqrt-log": InverseSqrtLogRemainder,
                       "inv-sqrt-loglog": InverseSqrtLogLogRemainder,
                       }[rem["name"]]()
            star = (None if m["theta_star"] is None
                    else np.array(m["theta_star"]))
            return SAProcessSpec(dim=m["d"], drift=drift,
                                 theta0=np.array(m["theta0"]), noise=noise,
                                 remainder=rem, theta_star=star)
        if kind == "urn":
            rule = m["adding_rule"]
            if rule["name"] == "deterministic":
                rule = DeterministicRule(np.array(rule["matrix"]))
            else:
                rule = BernoulliDiagonalRule(m["d"], p=rule["p"],
                                             scale=rule["scale"])
            return UrnSpec(d=m["d"], Y0=np.array(m["Y0"]), adding_rule=rule)
        if kind == "gauss":
            root = GaussianNoise.from_cov(np.array(m["gamma"])).root
            return GaussProcessSpec(H=np.array(m["H"]), gamma_root=root,
                                    G1=np.array(m["G1"]),
                                    grid=np.array(m["grid"]))
        return {"H": np.array(m["H"]), "theta0": np.array(m["theta0"])}


def validate_config(raw):
    """First-error validation of a parsed document; defaults applied."""
    _object(raw, "")
    _reject_unknown(raw, "", {"model", "run", "analysis", "output"})
    model = _validate_model(raw["model"]) if raw.get("model") is not None else None
    # an absent or null section takes its defaults; any other non-object fails
    section = {k: {} if raw.get(k) is None else raw[k]
               for k in ("run", "analysis", "output")}
    explicit = set()
    run = _validate_run(section["run"], explicit)
    analysis = _validate_analysis(section["analysis"], model)
    output = _validate_output(section["output"])
    return ConfigDocument(model=model, run=run, analysis=analysis,
                          output=output, explicit=frozenset(explicit))


def load_config(path):
    """Parse and validate a config file.

    Malformed JSON reports the line and column; schema violations report
    the JSON pointer of the first offending key.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}") from exc
    return validate_config(raw)
