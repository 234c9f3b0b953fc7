"""Command-line front end: structured configs in, canonical artifacts out.

Subcommands: analyze (limit analysis of the configured model), simulate
(recursion trajectories), urn / gauss / ode (their trajectories), verify
(Monte Carlo limit-law check), suite (the canonical showcase criteria).
Exit status 0 on success, 1 when a verification ran and failed, 2 for any
configuration problem.

Artifacts are byte-deterministic in (config, seed): reports embed the
config digest and tool version but never timestamps or host data. Every
artifact reaches disk through report.emit_report. The trajectory commands
share one run-manifest writer (_emit_run) that takes its CSV rows and json
payload straight from the engines' arrays; analyze and verify share one
limit prediction (_prediction).
--threads N caps the worker processes that run replicate batches and
suite's long mean recursions (simulate, urn, verify, suite; the other
commands start none); no artifact depends on it.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import analyze as analyze_drift
from .config import load_config, validate_config
from .errors import ConfigError, DivergenceError, UrnlabError
from .gauss import simulate_paths
from .ode import flow_identity_residual, integrate_flow
from .report import emit_report, object_fields, provenance
from .sa import run_sa  # noqa: F401  (bench/ checks the cli.run_sa binding)
from .urn import urn_asymptotics, urn_eigenstructure
from .verify import golden_suite, make_mc_report, mc_sample, simulate

_FORMAT_FLAG = {"json": ["json"], "csv": ["csv"], "both": ["json", "csv"]}


def _env_seed():
    raw = os.environ.get("URNLAB_SEED")
    if raw is None:
        return 0
    try:
        seed = int(raw.strip(), 10)
    except ValueError:
        raise ConfigError(
            f"URNLAB_SEED must be a nonnegative integer, got {raw!r}") from None
    if seed < 0:
        raise ConfigError(
            f"URNLAB_SEED must be a nonnegative integer, got {raw!r}")
    return seed


def _resolve(args):
    """Load the document and fold in the flag overrides.

    Seed priority: --seed, then a seed pinned in the file, then the
    URNLAB_SEED environment variable, then 0.
    """
    cfg = load_config(args.config) if args.config else validate_config({})
    if args.seed is not None:
        seed = args.seed
    elif "/run/seed" in cfg.explicit:
        seed = cfg.run["seed"]
    else:
        seed = _env_seed()
    cfg = cfg.with_seed(seed)
    if args.out is not None:
        cfg = cfg.with_output(dir=args.out)
    if args.format is not None:
        cfg = cfg.with_output(formats=_FORMAT_FLAG[args.format])
    return cfg


def _outdir(cfg):
    path = cfg.output["dir"]
    os.makedirs(path, exist_ok=True)
    return path


def _need_model(cfg, kinds, command):
    if cfg.model is None:
        raise ConfigError('missing required section "/model"', path="/model")
    kind = cfg.model["kind"]
    if kind not in kinds:
        raise ConfigError(
            f'command "{command}" needs a model of kind '
            f'{" or ".join(sorted(kinds))}, got "{kind}"', path="/model/kind")
    return kind


def _need_n(cfg):
    n = cfg.run["n"]
    if n is None:
        raise ConfigError('missing required key "/run/n"', path="/run/n")
    return n


def _emit(report, format, path):
    emit_report(report, format, path)
    print(path)


def _emit_run(cfg, manifest, tables, payload):
    """run.json of a trajectory command, after its CSV tables.

    tables yields (file name, (header, rows)) and is read only when csv is
    selected; payload() returns the keys that only the json format carries
    and is called only when json is selected.
    """
    out = _outdir(cfg)
    files = []
    if "csv" in cfg.output["formats"]:
        for name, table in tables:
            _emit(table, "csv", os.path.join(out, name))
            files.append(name)
    manifest["files"] = files
    manifest["provenance"] = provenance(cfg.digest(), cfg.run["seed"])
    if "json" in cfg.output["formats"]:
        manifest.update(payload())
    _emit(manifest, "json", os.path.join(out, "run.json"))
    return 0


def _columns(name, d):
    return [f"{name}_{j + 1}" for j in range(d)]


# ==== analyze ====

def _chain_basis(analysis):
    basis = analysis["chain_basis"]
    return None if basis is None else np.array(basis)


def _prediction(cfg, kind, what):
    """The limit report of an sa, gauss or urn model and the covariance it
    predicts (None in the slow regime); `what` names the refusing command
    in the message for a non-linear drift."""
    m = cfg.model
    if kind == "urn":
        rep = urn_asymptotics(cfg.build_model(),
                              rho_tol=cfg.analysis["rho_tol"])
        return rep, rep.Sigma_tilde
    if kind == "gauss":
        A, Gamma = m["H"], m["gamma"]
    elif isinstance(m["drift"], dict):
        raise ConfigError(f'"/model/drift": {what} needs a linear '
                          "coefficient matrix", path="/model/drift")
    else:
        A = m["drift"]
        Gamma = np.zeros((m["d"], m["d"])) if m["noise"] is None else m["noise"]
    rep = analyze_drift(np.array(A), np.array(Gamma),
                        rho_tol=cfg.analysis["rho_tol"],
                        chain_basis=_chain_basis(cfg.analysis))
    return rep, rep.covariance


def _cmd_analyze(args):
    cfg = _resolve(args)
    kind = _need_model(cfg, {"sa", "urn", "gauss", "ode"}, "analyze")
    if kind == "ode":
        alpha, v, u, lambda_sec, nu = urn_eigenstructure(
            np.array(cfg.model["H"]))
        payload = {"alpha": alpha, "v": v, "u": u,
                   "lambda_sec": lambda_sec, "nu": nu}
        matrix = None
    else:
        rep, matrix = _prediction(cfg, kind, "limit analysis")
        payload = object_fields(rep)
    payload["kind"] = kind
    payload["provenance"] = provenance(cfg.digest(), cfg.run["seed"])
    out = _outdir(cfg)
    if "json" in cfg.output["formats"]:
        _emit(payload, "json", os.path.join(out, "analyze.json"))
    if "csv" in cfg.output["formats"] and matrix is not None:
        _emit(matrix, "csv", os.path.join(out, "covariance.csv"))
    return 0


# ==== trajectory commands ====

def _cmd_trajectories(args):
    """simulate and urn: every replicate's checkpointed path, from the engine
    verify.simulate picks, with rows taken straight from its arrays; only
    simulate's manifest carries a model digest."""
    sa = args.command == "simulate"
    cfg = _resolve(args)
    _need_model(cfg, {"sa" if sa else "urn"}, args.command)
    n = _need_n(cfg)
    spec = cfg.build_model()
    plan = cfg.checkpoint_plan()
    seed = cfg.run["seed"]
    R = cfg.run["replicates"]
    paths, engine = simulate(spec, n, seed, plan, R,
                             basis=_chain_basis(cfg.analysis),
                             workers=args.threads)
    if engine["dropped"]:
        drop = engine["dropped"][0]
        raise DivergenceError(f"replicate {drop['replicate']} became non-finite "
                              f"at step {drop['first_bad_index']}",
                              first_bad_index=drop["first_bad_index"])
    ks = [int(cp[0]) for cp in paths]
    # (R, checkpoints, d) nested lists of python numbers, per state array
    X, *C = [np.stack(a, axis=1).tolist() for a in list(zip(*paths))[1:]]
    manifest = {"command": args.command, "n": n, "replicates": R,
                "seed": seed, "checkpoints": plan, "engine": engine}
    # a state's CSV row and json checkpoint, each made only for its format
    if sa:
        manifest["model_digest"] = spec.digest()
        prefix, header = "trajectory", ["n"] + _columns("theta", spec.dim)
        row, entry = (lambda k, x: [k] + x), (lambda k, x: [k, x])
    else:
        prefix = "urn"
        header = ["n"] + _columns("Y", spec.d) + _columns("N", spec.d)
        row, entry = ((lambda k, y, c: [k] + y + c),
                      (lambda k, y, c: {"n": k, "Y": y, "N": c}))

    def states(r):
        return zip(ks, X[r], *(c[r] for c in C))
    tables = ((f"{prefix}-{r}.csv", (header, [row(*s) for s in states(r)]))
              for r in range(R))
    return _emit_run(cfg, manifest, tables, lambda: {"trajectories": [
        {"replicate": r, "checkpoints": [entry(*s) for s in states(r)]}
        for r in range(R)]})


def _cmd_gauss(args):
    cfg = _resolve(args)
    _need_model(cfg, {"gauss"}, "gauss")
    spec = cfg.build_model()
    R = cfg.run["replicates"]
    grid = spec.grid.tolist()
    paths = simulate_paths(spec, cfg.run["seed"], R).tolist()
    header = ["t"] + _columns("G", spec.H.shape[0])
    tables = ((f"gauss-{r}.csv",
               (header, [[t] + G for t, G in zip(grid, paths[r])]))
              for r in range(R))
    manifest = {"command": "gauss", "grid": grid, "replicates": R,
                "seed": cfg.run["seed"]}
    return _emit_run(cfg, manifest, tables, lambda: {"paths": [
        {"replicate": r, "path": [[t, G] for t, G in zip(grid, paths[r])]}
        for r in range(R)]})


def _cmd_ode(args):
    cfg = _resolve(args)
    _need_model(cfg, {"ode"}, "ode")
    n = _need_n(cfg)
    prob = cfg.build_model()
    theta0, H = prob["theta0"], prob["H"]
    structure = urn_eigenstructure(np.asarray(H, dtype=float))
    states = integrate_flow(theta0, H, float(n), structure)
    header = ["s", "f"] + _columns("theta", len(theta0))
    tables = [("flow.csv", (header, [[st.s, st.f] + st.theta.tolist()
                                     for st in states]))]
    manifest = {
        "command": "ode",
        "s_max": float(n),
        "steps": len(states) - 1,  # clock steps taken; the start is a state
        "identity_residual": flow_identity_residual(states, theta0, H,
                                                    structure),
        "final_theta": states[-1].theta,
    }
    return _emit_run(cfg, manifest, tables,
                     lambda: {"states": states})


# ==== verification commands ====

def _cmd_verify(args):
    cfg = _resolve(args)
    kind = _need_model(cfg, {"sa", "urn"}, "verify")
    n = _need_n(cfg)
    seed = cfg.run["seed"]
    spec = cfg.build_model()
    rep, predicted = _prediction(cfg, kind, "verification")
    if predicted is None:
        raise ConfigError("the configured model is in the slow regime and "
                          "has no limit covariance to verify against",
                          path="/model")
    # the sample is scaled with the regime the prediction came from
    sample = mc_sample(spec, n, cfg.run["replicates"], seed, analysis=rep,
                       basis=_chain_basis(cfg.analysis), workers=args.threads)
    tol = cfg.analysis["tolerances"]
    report = make_mc_report(sample, predicted,
                            rel_tol=tol["rel_frobenius"], p_min=tol["p_min"])
    payload = object_fields(report)
    payload["engine"] = sample.engine
    payload["provenance"] = provenance(cfg.digest(), seed)
    out = _outdir(cfg)
    _emit(payload, "json", os.path.join(out, "verify.json"))
    if "csv" in cfg.output["formats"]:
        _emit(sample.errors, "csv", os.path.join(out, "samples.csv"))
    if report.verdict["passed"]:
        return 0
    print(f"verify: failed (rel_frobenius {report.rel_frobenius:.4g}, "
          f"min p {report.verdict['min_p_value']:.4g})", file=sys.stderr)
    return 1


def _cmd_suite(args):
    cfg = _resolve(args)
    seed = cfg.run["seed"]
    R = (cfg.run["replicates"] if "/run/replicates" in cfg.explicit else 2000)
    if "/run/n" in cfg.explicit:
        n = cfg.run["n"]
        horizons = (max(1, n // 10), n) if n >= 10 else (n,)
    else:
        horizons = (10 ** 4, 10 ** 5)
    report = golden_suite(R, horizons, seed, workers=args.threads)
    payload = object_fields(report)
    payload["replicates"] = R
    payload["horizons"] = list(horizons)
    payload["provenance"] = provenance(cfg.digest(), seed)
    out = _outdir(cfg)
    _emit(payload, "json", os.path.join(out, "suite.json"))
    if report.passed:
        return 0
    print(f"suite: {len(report.failures)} of {len(report.criteria)} criteria "
          f"failed: {', '.join(report.failures)}", file=sys.stderr)
    return 1


# ==== entry point ====

_COMMANDS = [
    ("analyze", _cmd_analyze, True,
     "limit analysis of the configured model"),
    ("simulate", _cmd_trajectories, True,
     "run recursion trajectories to the configured horizon"),
    ("urn", _cmd_trajectories, True, "run urn composition trajectories"),
    ("gauss", _cmd_gauss, True,
     "sample the limiting Gaussian process on its grid"),
    ("ode", _cmd_ode, True, "integrate the mean flow"),
    ("verify", _cmd_verify, True,
     "Monte Carlo check of the predicted limit covariance"),
    ("suite", _cmd_suite, False,
     "grade the canonical showcase criteria"),
]


def _threads(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return value


@functools.cache
def _parser():
    """The argument parser, built on first use and reused by later calls."""
    p = argparse.ArgumentParser(
        prog="urnlab",
        description="Stochastic approximation and adaptive urn toolkit")
    p.add_argument("--version", action="version",
                   version=f"urnlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, handler, need_config, help_text in _COMMANDS:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=need_config, metavar="PATH",
                       help="JSON run-configuration document")
        q.add_argument("--out", metavar="DIR",
                       help="artifact directory (overrides output.dir)")
        q.add_argument("--seed", type=int,
                       help="seed override (wins over config and URNLAB_SEED)")
        q.add_argument("--threads", type=_threads, default=1,
                       metavar="N",
                       help="cap on the worker processes that run replicate "
                            "batches and long mean recursions (at most the "
                            "usable CPUs); artifacts do not depend on it")
        q.add_argument("--format", choices=["json", "csv", "both"],
                       help="artifact formats (overrides output.formats)")
        q.set_defaults(handler=handler)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"urnlab: config error: {exc}", file=sys.stderr)
        return 2
    except UrnlabError as exc:
        print(f"urnlab: error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"urnlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
