"""Command-line entry point, and every file format of the package.

Subcommands cover the pipeline stages: generate | fit | summarize |
divergence | verify-bounds | rate-study | misspec.  All inputs come from an
INI-style config file, and a command accepts exactly the sections and keys
it reads: any other is a config error.  A key left out takes the default of
the config class it fills.  Next to the outputs, ``manifest.json`` holds the
config as read, the sha256 of its canonical text, the seed (null for
``summarize`` and ``divergence``, which draw no random number) and the
version; reruns of an equal config produce byte-identical CSVs.

This module alone reads and writes files; the library modules compute.  It
holds the INI config, the dataset directory (``X.csv``, ``Y.csv`` and
``meta.ini``), the chain binary and its sidecar CSV, and one writer for each
output kind: ``_write_table`` for every text table (the ``%.17g`` matrix
CSVs of ``write_matrix`` included) and ``_write_json`` for every JSON file.
``read_matrix`` reads every CSV of numbers.

``main`` alone decides the exit code, and writes the manifest on success:

  0  success.
  2  ConfigError: a section or key unread, missing or out of range, or an
     ``[output] dir`` that cannot be made; raised before that dir is made,
     but for two ``fit`` checks that need the dataset, which leave it made
     and empty: a ``[family]`` that differs from the dataset's, and a
     ``tau_manual`` too small for the dataset's p + q, one at which
     0.5 tau^2 / (p + q + 2) is not a normal double.
  3  DataError: an input file the config names is missing, unreadable or
     invalid; ``[output] dir`` is made, but nothing is written to it.
  4  any other exception, named by its type (``SamplerDivergence``, a failed
     study) on the first line of stderr, its traceback after it; a failed
     ``rate-study`` leaves a ``PARTIAL`` row.

Config and data errors print their message alone, ``config error: ...``
or ``data error: ...``, with no traceback.

Importing this module loads no SciPy, and no command loads more of it than
``scipy.special``, which the probit link needs for Phi.  The studies' ridge
starts and KL projection are Fisher-scoring fits in NumPy.
"""

import argparse
import configparser
import hashlib
import json
import os
import struct
import sys
import warnings

import numpy as np

from . import __version__
from .divergence import RENYI_ORDERS, divergence_report
from .experiments import (MisspecConfig, RateStudyConfig,
                          hellinger_consistency_check, run_misspec_study,
                          run_rate_study, sampling_box,
                          verify_divergence_bounds)
from .families import FAMILY_KEYS, Dataset, FamilySpec
from .posterior import (Chain, FractionalConfig, effective_rank,
                        posterior_mean, run_sampler)
from .prior import THEOREM_PRESETS, PriorConfig, check_tau, tau_preset
from .simulate import (DESIGN_MODES, calibrate_scale, generate_dataset,
                       make_design, make_low_rank_truth)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

CHAIN_MAGIC = b"FRRRCHN1"
CHAIN_HEADER = struct.Struct("<iiidd")  # p, q, sample count, alpha, step


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    """An input file that the config names is missing, unreadable or
    invalid."""


def read_config(path):
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
        return {section: dict(cp[section]) for section in cp.sections()}
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")


def canonical_text(cfg):
    """Canonical serialization (sorted sections/keys) used for hashing."""
    lines = []
    for section in sorted(cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            lines.append(f"{key} = {cfg[section][key]}")
    return "\n".join(lines) + "\n"


class ConfigReader:
    """One command's parsed config, which records each key the command reads.

    Once the command has read its whole config, ``reject_unread`` makes any
    section or key it left unread a ConfigError, so a command accepts
    exactly the keys it reads.
    """

    def __init__(self, command, parsed):
        self.command = command
        self.parsed = parsed
        self._read = set()

    def get(self, section, key, default=None, cast=str):
        self._read.add((section, key))
        raw = self.parsed.get(section, {}).get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {exc}")

    def reject_unread(self):
        for section, keys in self.parsed.items():
            unread = [key for key in keys if (section, key) not in self._read]
            if unread or not keys:
                raise ConfigError(f"{self.command} reads no [{section}] "
                                  + (" ".join(unread) or "section"))


def _list(cast):
    """The cast of a space- or comma-separated list of ``cast`` values."""
    return lambda raw: tuple(cast(x) for x in raw.replace(",", " ").split())


def family_from_config(cfg):
    family = cfg.get("family", "family")
    if family is None:
        raise ConfigError("missing [family] family")
    return _config(FamilySpec, family=family, **{
        key: cfg.get("family", key, cast=float) for key in FAMILY_KEYS})


def prior_preset(cfg):
    """The [prior] preset and its manual tau (None for a theorem preset),
    checked before any data is read."""
    preset = cfg.get("prior", "tau_preset", "theorem1")
    if preset == "manual":
        tau = cfg.get("prior", "tau_manual", cast=float)
        if tau is None:
            raise ConfigError("manual preset requires tau_manual")
        try:
            check_tau(tau)
        except ValueError as exc:
            raise ConfigError(f"[prior] tau_manual: {exc}")
        return preset, tau
    if preset not in THEOREM_PRESETS:
        raise ConfigError(f"unknown [prior] tau_preset {preset!r}")
    return preset, None


def _config(config_class, **fields):
    """The config object from the fields that are set, so that the class
    holds every default; a ConfigError where the class rejects a value."""
    try:
        return config_class(**{key: value for key, value in fields.items()
                               if value is not None})
    except ValueError as exc:
        raise ConfigError(str(exc))


def write_manifest(cfg, seed):
    manifest = {
        "command": cfg.command,
        "config_hash": hashlib.sha256(
            canonical_text(cfg.parsed).encode()).hexdigest(),
        "config": cfg.parsed,
        "seed": seed,
        "version": __version__,
    }
    _write_json(os.path.join(cfg.parsed["output"]["dir"], "manifest.json"),
                manifest)


def _write_json(path, obj):
    """Indented JSON with sorted keys and a trailing newline; a NaN or an
    infinity, which JSON cannot hold, raises before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=float,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_table(path, header, fmt, rows):
    """``header`` (if any), then one ``fmt % row`` line per row."""
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in rows:
            fh.write(fmt % row + "\n")


def write_matrix(path, M):
    """One CSV line per row, each value as %.17g (round-trips float64)."""
    M = np.atleast_2d(M)
    _write_table(path, None, ",".join(["%.17g"] * M.shape[1]), map(tuple, M))


def read_matrix(path, header=False):
    """The rows of a CSV file of numbers, after its header line if
    ``header``, as a 2-d array.  A file with no data row raises ValueError
    naming it, in place of NumPy's warning and an empty array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        M = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=int(header))
    if M.size == 0:
        raise ValueError(f"{path} holds no data row")
    return M


def save_dataset(dirpath, data, seed):
    """X.csv and Y.csv, and meta.ini with the family and the seed."""
    os.makedirs(dirpath, exist_ok=True)
    write_matrix(os.path.join(dirpath, "X.csv"), data.X)
    write_matrix(os.path.join(dirpath, "Y.csv"), data.Y)
    spec = data.family
    meta = configparser.ConfigParser()
    meta["family"] = {"family": spec.family, **{
        key: "%.17g" % getattr(spec, key) for key in FAMILY_KEYS}}
    meta["provenance"] = {"seed": str(seed)}
    with open(os.path.join(dirpath, "meta.ini"), "w") as fh:
        meta.write(fh)


def load_dataset(dirpath):
    meta = configparser.ConfigParser()
    with open(os.path.join(dirpath, "meta.ini")) as fh:
        meta.read_file(fh)
    fam = meta["family"]
    unread = set(fam) - {"family", *FAMILY_KEYS}
    if unread:
        raise DataError(f"meta.ini [family] holds {' '.join(sorted(unread))}"
                        ", which this version does not read: regenerate "
                        "the dataset")
    spec = FamilySpec(family=fam["family"],
                      **{key: float(fam[key]) for key in FAMILY_KEYS})
    X, Y = (read_matrix(os.path.join(dirpath, name))
            for name in ("X.csv", "Y.csv"))
    return Dataset(X=X, Y=Y, family=spec)


def save_chain(path, chain):
    """Binary chain file: magic, p, q, count (int32 LE), alpha/gamma (f64),
    then row-major float64 sample matrices.  A sidecar CSV
    (step, log_post, accepted) is written next to it."""
    m, p, q = chain.samples.shape
    with open(path, "wb") as fh:
        fh.write(CHAIN_MAGIC)
        fh.write(CHAIN_HEADER.pack(p, q, m, chain.alpha, chain.step_size))
        fh.write(np.ascontiguousarray(chain.samples, dtype="<f8").tobytes())
    _write_table(str(path) + ".csv", "step,log_post,accepted", "%d,%.17g,%d",
                 zip(range(m), chain.log_post, chain.accept_flags))


def load_chain(path):
    """The Chain that ``save_chain`` wrote, with its acceptance rate over the
    retained steps.  A short header or sample block, a chain with no sample,
    or a sidecar that is not one row per sample of step, log_post and
    accepted (0 or 1), raises ValueError; a missing sidecar OSError."""
    with open(path, "rb") as fh:
        if fh.read(8) != CHAIN_MAGIC:
            raise ValueError("not a chain file")
        header = fh.read(CHAIN_HEADER.size)
        if len(header) < CHAIN_HEADER.size:
            raise ValueError("chain header is truncated")
        p, q, m, alpha, gamma = CHAIN_HEADER.unpack(header)
        if min(p, q, m) < 1:
            raise ValueError(f"chain header gives an empty size {(m, p, q)}")
        # checked before the read, which header sizes could overflow
        if os.fstat(fh.fileno()).st_size - fh.tell() < 8 * m * p * q:
            raise ValueError(f"chain file holds fewer than {m} samples")
        raw = fh.read(8 * m * p * q)
    side = read_matrix(str(path) + ".csv", header=True)
    if side.shape[1] != 3:
        raise ValueError(f"chain sidecar rows hold {side.shape[1]} values, "
                         f"expected 3 (step, log_post, accepted)")
    if side.shape[0] != m:
        raise ValueError(f"chain sidecar has {side.shape[0]} rows, "
                         f"expected {m}")
    flags = side[:, 2] == 1.0
    if not (flags | (side[:, 2] == 0.0)).all():
        raise ValueError("chain sidecar's accepted values are not all 0 or 1")
    return Chain(samples=np.frombuffer(raw, "<f8").reshape(m, p, q).copy(),
                 log_post=side[:, 1], accept_flags=flags, alpha=alpha,
                 step_size=gamma, acceptance_rate=float(np.mean(flags)))


def _write_chain_summary(outdir, name, chain, **extra):
    """bhat.csv, the posterior mean, and the JSON summary ``name`` of the
    chain, with the ``extra`` keys."""
    b_hat = posterior_mean(chain)
    write_matrix(os.path.join(outdir, "bhat.csv"), b_hat)
    _write_json(os.path.join(outdir, name), dict(
        alpha=chain.alpha, step_size=chain.step_size,
        n_retained=len(chain.samples), acceptance_rate=chain.acceptance_rate,
        effective_rank_bhat=effective_rank(b_hat), **extra))


def _outdir(cfg):
    """Make [output] dir, the last key a command reads: a section or key it
    left unread is rejected first, before any output or data is touched."""
    out = cfg.get("output", "dir")
    if out is None:
        raise ConfigError("missing [output] dir")
    cfg.reject_unread()
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make [output] dir: {exc}")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg):
    spec = family_from_config(cfg)
    seed = cfg.get("run", "seed", 0, int)
    p, q, r = (cfg.get("truth", key, cast=int) for key in ("p", "q", "r"))
    n = cfg.get("design", "n", cast=int)
    if None in (p, q, r, n):
        raise ConfigError("generate requires [truth] p, q, r and [design] n")
    if min(n, p, q) < 1 or not 0 <= r <= min(p, q):
        raise ConfigError("generate requires n, p and q of at least 1 and "
                          "0 <= r <= min(p, q)")
    calibrate = cfg.get("truth", "calibrate", "true")
    if calibrate not in ("true", "false"):
        raise ConfigError("[truth] calibrate must be true or false")
    scale = 1.0  # calibration resets the scale: only calibrate = false reads it
    if calibrate == "false":
        scale = cfg.get("truth", "scale", 1.0, float)
        if not np.isfinite(scale) or scale == 0:
            raise ConfigError("[truth] scale must be finite and nonzero")
    mode = cfg.get("design", "mode", "iid")
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
    return seed


def cmd_fit(cfg):
    dataset_dir = cfg.get("data", "dataset_dir")
    if dataset_dir is None:
        raise ConfigError("missing [data] dataset_dir")
    # the dataset's meta.ini fixes the family; [family], if any, must match it
    spec = family_from_config(cfg) if "family" in cfg.parsed else None
    frac = _config(
        FractionalConfig,
        alpha=cfg.get("sampler", "alpha", cast=float),
        step_size=cfg.get("sampler", "step_size", cast=float),
        n_steps=cfg.get("sampler", "n_steps", cast=int),
        burn_in=cfg.get("sampler", "burn_in", cast=int),
        thin=cfg.get("sampler", "thin", cast=int),
        seed=cfg.get("run", "seed", cast=int),
    )
    preset, tau = prior_preset(cfg)
    out = _outdir(cfg)
    try:  # a theorem preset also needs a design that is not all zeros
        data = load_dataset(dataset_dir)
        if tau is None:
            tau = tau_preset(preset, data.n, data.p, data.q, data.family.a,
                             float(np.linalg.norm(data.X)))
    except (OSError, KeyError, ValueError, configparser.Error) as exc:
        raise DataError(f"dataset invalid: {type(exc).__name__}: {exc}")
    # a tau too small for the dataset's (p, q) is a config error
    prior_cfg = _config(PriorConfig, tau=tau, p=data.p, q=data.q)
    if spec is not None and spec != data.family:
        raise ConfigError(f"[family] {spec} differs from {data.family}")
    chain = run_sampler(data, prior_cfg, frac)
    save_chain(os.path.join(out, "chain.bin"), chain)
    _write_chain_summary(out, "fit_summary.json", chain,
                         dataset_digest=data.digest())
    return frac.seed


def cmd_summarize(cfg):
    chain_file = cfg.get("data", "chain_file")
    if chain_file is None:
        raise ConfigError("missing [data] chain_file")
    out = _outdir(cfg)
    try:
        chain = load_chain(chain_file)
    except (OSError, ValueError) as exc:
        raise DataError(f"chain invalid: {exc}")
    _write_chain_summary(out, "summary.json", chain)


def cmd_divergence(cfg):
    spec = family_from_config(cfg)
    theta_file = cfg.get("divergence", "theta_file")
    zeta_file = cfg.get("divergence", "zeta_file")
    if theta_file is None or zeta_file is None:
        raise ConfigError("[divergence] requires theta_file and zeta_file")
    alphas = cfg.get("divergence", "alphas", RENYI_ORDERS, _list(float))
    if not alphas or not all(0 < a < 1 for a in alphas):
        raise ConfigError("[divergence] alphas must be values in (0, 1)")
    out = _outdir(cfg)
    try:  # the report rejects unequal shapes, empty or non-finite matrices
        # and values outside the domain
        Theta, Zeta = (read_matrix(path) for path in (theta_file, zeta_file))
        rep = divergence_report(spec, Theta, Zeta, alphas)
    except (OSError, ValueError) as exc:
        raise DataError(f"bad parameter file: {exc}")
    _write_table(
        os.path.join(out, "divergence.csv"),
        "metric,alpha,per_entry_avg,total,normalization",
        "%s,%s,%.17g,%.17g,%s",
        [("kl", "", rep.kl_avg, rep.kl_total, "additive")]
        + [("renyi", "%.17g" % a, rep.renyi_avg[a], rep.renyi_total[a],
            "additive") for a in sorted(rep.renyi_avg)]
        + [("hellinger_sq", "", rep.hellinger_sq / rep.n_entries,
            rep.hellinger_sq, "total"),
           ("tv_lower", "", rep.tv_lower, rep.tv_lower, "total"),
           ("tv_upper", "", rep.tv_upper, rep.tv_upper, "total")])


def cmd_verify_bounds(cfg):
    spec = family_from_config(cfg)
    seed = cfg.get("run", "seed", 0, int)
    trials = cfg.get("study", "trials", 1000, int)
    if trials < 1:
        raise ConfigError("[study] trials must be at least 1")
    _config(sampling_box, spec=spec)  # the interval must meet the box
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
    return seed


_RATE_HEADER = ("n,r,rep,pred_err,pred_err_post,est_err,d_alpha,prop1_bound,"
                "acceptance")


def _study_fields(cfg):
    """The fields both studies read; an unset one is None, so that the study
    config's default applies."""
    return dict(
        p=cfg.get("truth", "p", cast=int),
        q=cfg.get("truth", "q", cast=int),
        r=cfg.get("truth", "r", cast=int),
        n_grid=cfg.get("study", "n_grid", cast=_list(int)),
        replications=cfg.get("study", "replications", cast=int),
        alpha=cfg.get("sampler", "alpha", cast=float),
        design_mode=cfg.get("design", "mode"),
        n_steps=cfg.get("study", "n_steps", cast=int),
        burn_in=cfg.get("study", "burn_in", cast=int),
        thin=cfg.get("study", "thin", cast=int),
        seed=cfg.get("run", "seed", cast=int),
    )


def cmd_rate_study(cfg):
    r_grid = cfg.get("study", "r_grid", cast=_list(int))
    study = _config(
        RateStudyConfig,
        family=family_from_config(cfg),
        r_grid=r_grid,  # its extra ranks alone run at n_ref
        n_ref=cfg.get("study", "n_ref", cast=int) if r_grid else None,
        tau_preset=cfg.get("prior", "tau_preset"),
        **_study_fields(cfg),
    )
    out = _outdir(cfg)
    rows_path = os.path.join(out, "rate_cells.csv")
    try:
        result = run_rate_study(study)
    except Exception:  # a marker row in place of the cells
        _write_table(rows_path, _RATE_HEADER, "%s,,,,,,,,", [("PARTIAL",)])
        raise
    _write_table(
        rows_path, _RATE_HEADER, "%d,%d,%d" + ",%.17g" * 6,
        ((c.n, c.r, i, c.pred_err[i], c.pred_err_post[i], c.est_err[i],
          c.d_alpha[c.alpha][i], c.prop1_bound, c.acceptance[i])
         for c in result.cells for i in range(len(c.pred_err))))
    summary = result.summary()
    summary["hellinger_check"] = hellinger_consistency_check(result)
    _write_json(os.path.join(out, "summary.json"), summary)
    # gnuplot-ready two-column data
    ncells = result.n_cells()
    _write_table(os.path.join(out, "error_vs_n.dat"), None, "%d %.17g",
                 ((c.n, float(np.mean(c.pred_err))) for c in ncells))
    _write_table(os.path.join(out, "bound_vs_n.dat"), None, "%d %.17g",
                 ((c.n, c.prop1_bound) for c in ncells))
    return study.seed


def cmd_misspec(cfg):
    # the study fixes its true and fitted families and its tau preset
    study = _config(MisspecConfig, **_study_fields(cfg))
    out = _outdir(cfg)
    result = run_misspec_study(study)
    _write_table(
        os.path.join(out, "misspec_cells.csv"),
        "n,rep,lhs_pred,d_alpha,oracle_rhs,theorem2_rhs,kl_floor",
        "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g",
        ((c.n, i, c.lhs_pred[i], c.d_alpha[i], c.oracle_rhs, c.theorem2_rhs,
          c.kl_floor) for c in result.cells for i in range(len(c.lhs_pred))))
    _write_json(os.path.join(out, "summary.json"), result.summary())
    _write_table(os.path.join(out, "dalpha_vs_n.dat"), None, "%d %.17g",
                 ((c.n, float(np.mean(c.d_alpha))) for c in result.cells))
    return study.seed


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
        cfg = ConfigReader(args.command, read_config(args.config))
        write_manifest(cfg, _COMMANDS[args.command](cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        import traceback

        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
