"""Command-line entry point.

Subcommands cover the pipeline stages: generate | fit | summarize |
divergence | verify-bounds | rate-study | misspec.  All inputs come from an
INI-style config file; every resolved value (defaults included) is
materialized into a manifest next to the outputs, and reruns with an equal
manifest produce byte-identical CSVs.

Exit codes: 0 success, 2 config error, 3 data validation error,
4 numerical failure.

Importing this module loads no SciPy: the library imports each SciPy function
where it is called.  A gaussian ``generate``/``fit``/``summarize`` never loads
SciPy, and a bernoulli family loads ``scipy.special``.  No command loads
SciPy's optimisers: the studies' ridge starts and KL projection are
Fisher-scoring fits in NumPy.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .divergence import divergence_report
from .experiments import (MisspecConfig, RateStudyConfig,
                          hellinger_consistency_check, run_misspec_study,
                          run_rate_study, verify_divergence_bounds)
from .families import FamilySpec
from .posterior import (Chain, FractionalConfig, SamplerDivergence,
                        effective_rank, load_chain, posterior_mean,
                        run_sampler, save_chain)
from .prior import THEOREM_PRESETS, PriorConfig, tau_preset
from .simulate import (DESIGN_MODES, calibrate_scale, generate_dataset,
                       load_dataset, make_design, make_low_rank_truth,
                       save_dataset, write_matrix)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "family": {"family", "a", "k", "theta_lo", "theta_hi", "clip_margin"},
    "prior": {"tau_preset", "tau_manual"},
    "sampler": {"alpha", "step_size", "n_steps", "burn_in", "thin"},
    "truth": {"p", "q", "r", "scale", "calibrate"},
    "design": {"n", "mode"},
    "data": {"dataset_dir", "chain_file"},
    "study": {"n_grid", "r_grid", "n_ref", "replications", "trials",
              "n_steps", "burn_in", "thin"},
    "divergence": {"theta_file", "zeta_file", "alphas"},
    "output": {"dir"},
    "run": {"seed"},
}


def read_config(path):
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cfg = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        cfg[section] = dict(cp[section])
    return cfg


def canonical_text(cfg):
    """Canonical serialization (sorted sections/keys) used for hashing."""
    lines = []
    for section in sorted(cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            lines.append(f"{key} = {cfg[section][key]}")
    return "\n".join(lines) + "\n"


def _get(cfg, section, key, default=None, cast=str):
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}")


def _int_list(raw):
    return tuple(int(x) for x in raw.replace(",", " ").split())


def _float_list(raw):
    return tuple(float(x) for x in raw.replace(",", " ").split())


def family_from_config(cfg):
    fam = cfg.get("family", {})
    if "family" not in fam:
        raise ConfigError("missing [family] family")
    kwargs = dict(family=fam["family"])
    for key in ("a", "k", "theta_lo", "theta_hi", "clip_margin"):
        if key in fam:
            kwargs[key] = _get(cfg, "family", key, cast=float)
    return _config(FamilySpec, **kwargs)


def resolve_prior(cfg, n, p, q, a, x_frob):
    preset = _get(cfg, "prior", "tau_preset", "theorem1")
    if preset == "manual":
        tau = _get(cfg, "prior", "tau_manual", cast=float)
        if tau is None:
            raise ConfigError("manual preset requires tau_manual")
    elif preset in THEOREM_PRESETS:
        tau = tau_preset(preset, n, p, q, a, x_frob)
    else:
        raise ConfigError(f"unknown [prior] tau_preset {preset!r}")
    return _config(PriorConfig, tau=tau, p=p, q=q, preset=preset)


def _config(config_class, **fields):
    """The config object, a ConfigError where its class rejects a value."""
    try:
        return config_class(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc))


def write_manifest(outdir, command, cfg, seed):
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(canonical_text(cfg).encode()).hexdigest(),
        "config": cfg,
        "seed": seed,
        "version": __version__,
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _write_json(path, obj):
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _write_table(path, header, fmt, rows):
    """``header`` (if any), then one ``fmt % row`` line per row."""
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in rows:
            fh.write(fmt % row + "\n")


def _outdir(cfg):
    out = _get(cfg, "output", "dir")
    if out is None:
        raise ConfigError("missing [output] dir")
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg):
    spec = family_from_config(cfg)
    seed = _get(cfg, "run", "seed", 0, int)
    p = _get(cfg, "truth", "p", cast=int)
    q = _get(cfg, "truth", "q", cast=int)
    r = _get(cfg, "truth", "r", cast=int)
    if None in (p, q, r):
        raise ConfigError("[truth] requires p, q and r")
    scale = _get(cfg, "truth", "scale", 1.0, float)
    calibrate = _get(cfg, "truth", "calibrate", "true")
    if calibrate not in ("true", "false"):
        raise ConfigError("[truth] calibrate must be true or false")
    n = _get(cfg, "design", "n", cast=int)
    if n is None:
        raise ConfigError("[design] requires n")
    mode = _get(cfg, "design", "mode", "iid")
    if mode not in DESIGN_MODES:
        raise ConfigError(f"unknown [design] mode {mode!r}")
    out = _outdir(cfg)

    rng = np.random.default_rng(seed)
    X = make_design(n, p, mode, rng)
    truth = make_low_rank_truth(p, q, r, scale, rng)
    if calibrate == "true":
        truth = calibrate_scale(X, truth)
    data = generate_dataset(X, truth, spec, rng)
    save_dataset(out, data, seed=seed)
    write_matrix(os.path.join(out, "truth.csv"), truth.b0)
    write_manifest(out, "generate", cfg, seed)
    return EXIT_OK


def _write_fit_outputs(outdir, chain):
    b_hat = posterior_mean(chain)
    write_matrix(os.path.join(outdir, "bhat.csv"), b_hat)
    summary = {
        "acceptance_rate": chain.acceptance_rate,
        "effective_rank_bhat": effective_rank(b_hat),
        "step_size": chain.step_size,
        "n_retained": int(len(chain.samples)),
        "alpha": chain.config.alpha,
        "dataset_digest": chain.dataset_digest,
    }
    _write_json(os.path.join(outdir, "fit_summary.json"), summary)


def cmd_fit(cfg):
    seed = _get(cfg, "run", "seed", 0, int)
    dataset_dir = _get(cfg, "data", "dataset_dir")
    if dataset_dir is None:
        raise ConfigError("missing [data] dataset_dir")
    # the dataset's meta.ini fixes the family; [family], if any, must match it
    spec = family_from_config(cfg) if "family" in cfg else None
    out = _outdir(cfg)
    frac = _config(
        FractionalConfig,
        alpha=_get(cfg, "sampler", "alpha", 0.5, float),
        step_size=_get(cfg, "sampler", "step_size", cast=float),
        n_steps=_get(cfg, "sampler", "n_steps", 10000, int),
        burn_in=_get(cfg, "sampler", "burn_in", cast=int),
        thin=_get(cfg, "sampler", "thin", 10, int),
        seed=seed,
    )
    try:
        data = load_dataset(dataset_dir)
    except (OSError, ValueError) as exc:
        print(f"error: dataset invalid: {exc}", file=sys.stderr)
        return EXIT_DATA
    if spec is not None and spec != data.family:
        raise ConfigError(f"[family] {spec} differs from {data.family}")
    prior_cfg = resolve_prior(cfg, data.n, data.p, data.q, data.family.a,
                              float(np.linalg.norm(data.X)))
    try:
        chain = run_sampler(data, prior_cfg, frac)
    except SamplerDivergence as exc:
        print(f"error: sampler diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    save_chain(os.path.join(out, "chain.bin"), chain)
    _write_fit_outputs(out, chain)
    write_manifest(out, "fit", cfg, seed)
    return EXIT_OK


def cmd_summarize(cfg):
    chain_file = _get(cfg, "data", "chain_file")
    if chain_file is None:
        raise ConfigError("missing [data] chain_file")
    out = _outdir(cfg)
    try:
        samples, alpha, gamma, log_post, flags = load_chain(chain_file)
    except (OSError, ValueError) as exc:
        print(f"error: chain invalid: {exc}", file=sys.stderr)
        return EXIT_DATA
    chain = Chain(samples=samples, log_post=log_post, accept_flags=flags,
                  config=None, dataset_digest="", step_size=gamma,
                  acceptance_rate=float(np.mean(flags)) if len(flags) else 1.0)
    b_hat = posterior_mean(chain)
    write_matrix(os.path.join(out, "bhat.csv"), b_hat)
    summary = {
        "alpha": alpha,
        "step_size": gamma,
        "n_retained": int(len(samples)),
        "effective_rank_bhat": effective_rank(b_hat),
        "acceptance_rate": chain.acceptance_rate,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    write_manifest(out, "summarize", cfg, _get(cfg, "run", "seed", 0, int))
    return EXIT_OK


def cmd_divergence(cfg):
    spec = family_from_config(cfg)
    theta_file = _get(cfg, "divergence", "theta_file")
    zeta_file = _get(cfg, "divergence", "zeta_file")
    if theta_file is None or zeta_file is None:
        raise ConfigError("[divergence] requires theta_file and zeta_file")
    alphas = _get(cfg, "divergence", "alphas", (0.25, 0.5, 0.75), _float_list)
    out = _outdir(cfg)
    try:
        Theta = np.loadtxt(theta_file, delimiter=",", ndmin=2)
        Zeta = np.loadtxt(zeta_file, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        print(f"error: bad parameter file: {exc}", file=sys.stderr)
        return EXIT_DATA
    report = divergence_report(spec, Theta, Zeta, alphas)
    report.to_csv(os.path.join(out, "divergence.csv"))
    write_manifest(out, "divergence", cfg, _get(cfg, "run", "seed", 0, int))
    return EXIT_OK


def cmd_verify_bounds(cfg):
    spec = family_from_config(cfg)
    seed = _get(cfg, "run", "seed", 0, int)
    trials = _get(cfg, "study", "trials", 1000, int)
    out = _outdir(cfg)
    rng = np.random.default_rng(seed)
    res = verify_divergence_bounds(spec, trials, rng)
    sat = res["satisfied"]
    _write_table(
        os.path.join(out, "bounds.csv"),
        "trial,kl_exact,kl_bound,kl_ok,renyi_half,renyi_lower,renyi_ok,"
        "logsq_exact,logsq_bound,logsq_ok,misspec_exact,misspec_bound,"
        "misspec_ok",
        "%d,%.17g,%.17g,%d,%.17g,%.17g,%d,%.17g,%.17g,%d,%.17g,%.17g,%d",
        ((i, res["kl_exact"][i], res["kl_bound"][i], sat["kl_upper"][i],
          res["renyi_exact"][0.5][i], res["renyi_lower_bound"][0.5][i],
          sat["renyi_lower"][i], res["logsq_exact"][i],
          res["logsq_bound"][i], sat["log_sq"][i], res["misspec_exact"][i],
          res["misspec_bound"][i], sat["misspec_kl"][i])
         for i in range(trials)))
    frac = res["satisfied_fraction"]
    _write_json(os.path.join(out, "summary.json"),
                {"satisfied_fraction": min(frac.values()),
                 "per_lemma": frac, "trials": trials})
    write_manifest(out, "verify-bounds", cfg, seed)
    return EXIT_OK


_RATE_HEADER = ("n,r,rep,pred_err,pred_err_post,est_err,d_alpha,prop1_bound,"
                "acceptance")


def _reject_design_n(cfg, command):
    """The studies take their sample sizes from [study] n_grid."""
    if "n" in cfg.get("design", {}):
        raise ConfigError(f"{command} takes no [design] n; [study] n_grid "
                          "sets the sample sizes")


def cmd_rate_study(cfg):
    spec = family_from_config(cfg)
    _reject_design_n(cfg, "rate-study")
    if "tau_manual" in cfg.get("prior", {}):
        raise ConfigError("rate-study takes no [prior] tau_manual; tau comes "
                          "from a theorem preset")
    seed = _get(cfg, "run", "seed", 0, int)
    out = _outdir(cfg)
    study = _config(
        RateStudyConfig,
        family=spec,
        p=_get(cfg, "truth", "p", 8, int),
        q=_get(cfg, "truth", "q", 6, int),
        r=_get(cfg, "truth", "r", 2, int),
        n_grid=_get(cfg, "study", "n_grid", (100, 200, 400), _int_list),
        r_grid=_get(cfg, "study", "r_grid", (), _int_list),
        n_ref=_get(cfg, "study", "n_ref", 400, int),
        replications=_get(cfg, "study", "replications", 20, int),
        alpha=_get(cfg, "sampler", "alpha", 0.5, float),
        tau_preset=_get(cfg, "prior", "tau_preset", "theorem1"),
        design_mode=_get(cfg, "design", "mode", "iid"),
        n_steps=_get(cfg, "study", "n_steps", 3500, int),
        burn_in=_get(cfg, "study", "burn_in", 1000, int),
        thin=_get(cfg, "study", "thin", 5, int),
        seed=seed,
    )
    rows_path = os.path.join(out, "rate_cells.csv")
    try:
        result = run_rate_study(study)
    except Exception as exc:  # partial results are flushed with a marker
        _write_table(rows_path, _RATE_HEADER, "%s,,,,,,,,", [("PARTIAL",)])
        print(f"error: rate study failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_table(rows_path, _RATE_HEADER,
                 "%(n)d,%(r)d,%(rep)d,%(pred_err).17g,%(pred_err_post).17g,"
                 "%(est_err).17g,%(d_alpha).17g,%(prop1_bound).17g,"
                 "%(acceptance).17g", result.to_rows())
    summary = result.summary()
    summary["hellinger_check"] = hellinger_consistency_check(result)
    _write_json(os.path.join(out, "summary.json"), summary)
    # gnuplot-ready two-column data
    ncells = result.n_cells()
    _write_table(os.path.join(out, "error_vs_n.dat"), None, "%d %.17g",
                 ((c.n, float(np.mean(c.pred_err))) for c in ncells))
    _write_table(os.path.join(out, "bound_vs_n.dat"), None, "%d %.17g",
                 ((c.n, c.prop1_bound) for c in ncells))
    write_manifest(out, "rate-study", cfg, seed)
    return EXIT_OK


def cmd_misspec(cfg):
    # the study fixes its true and fitted families and its tau preset
    for section in ("family", "prior"):
        if section in cfg:
            raise ConfigError(f"misspec takes no [{section}] section")
    _reject_design_n(cfg, "misspec")
    seed = _get(cfg, "run", "seed", 0, int)
    out = _outdir(cfg)
    study = _config(
        MisspecConfig,
        p=_get(cfg, "truth", "p", 6, int),
        q=_get(cfg, "truth", "q", 4, int),
        r=_get(cfg, "truth", "r", 2, int),
        n_grid=_get(cfg, "study", "n_grid", (400,), _int_list),
        replications=_get(cfg, "study", "replications", 10, int),
        alpha=_get(cfg, "sampler", "alpha", 0.5, float),
        design_mode=_get(cfg, "design", "mode", "iid"),
        n_steps=_get(cfg, "study", "n_steps", 3000, int),
        burn_in=_get(cfg, "study", "burn_in", 800, int),
        thin=_get(cfg, "study", "thin", 5, int),
        seed=seed,
    )
    try:
        result = run_misspec_study(study)
    except Exception as exc:
        print(f"error: misspec study failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_table(
        os.path.join(out, "misspec_cells.csv"),
        "n,rep,lhs_pred,d_alpha,oracle_rhs,theorem2_rhs,kl_floor",
        "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g",
        ((c.n, i, c.lhs_pred[i], c.d_alpha[i], c.oracle_rhs, c.theorem2_rhs,
          c.kl_floor) for c in result.cells for i in range(len(c.lhs_pred))))
    _write_json(os.path.join(out, "summary.json"), result.summary())
    _write_table(os.path.join(out, "dalpha_vs_n.dat"), None, "%d %.17g",
                 ((c.n, float(np.mean(c.d_alpha))) for c in result.cells))
    write_manifest(out, "misspec", cfg, seed)
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "summarize": cmd_summarize,
    "divergence": cmd_divergence,
    "verify-bounds": cmd_verify_bounds,
    "rate-study": cmd_rate_study,
    "misspec": cmd_misspec,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="frrr",
        description="Fractional-posterior generalized reduced-rank regression")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="INI-style config file")
    args = parser.parse_args(argv)
    try:
        cfg = read_config(args.config)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
