import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from frrr import cli
from frrr.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, ConfigReader,
                      canonical_text, family_from_config, main, read_config)
from frrr.experiments import MisspecConfig, RateStudyConfig
from frrr.families import FamilySpec, theta_from_eta
from frrr.posterior import FractionalConfig, run_sampler
from frrr.prior import PriorConfig


def write_ini(path, text):
    path.write_text(text)
    return str(path)


# the last stderr line of a command whose study was stopped on purpose: a
# test that provokes exit 4 reads its traceback rather than printing it
STOP = "RuntimeError: stop after capturing the config"


GEN = """
[family]
family = gaussian
[truth]
p = 4
q = 3
r = 2
[design]
n = 40
[output]
dir = {out}
[run]
seed = 5
"""

FIT = """
[family]
family = gaussian
[data]
dataset_dir = {data}
[sampler]
alpha = 0.5
n_steps = 300
burn_in = 100
thin = 3
[prior]
tau_preset = theorem1
[output]
dir = {out}
[run]
seed = 5
"""

RATE = """
[family]
family = gaussian
[truth]
p = 3
q = 2
r = 1
[study]
n_grid = 40 80
replications = 2
n_steps = 300
burn_in = 100
thin = 5
[output]
dir = {out}
[run]
seed = 3
"""

MISSPEC = """
[truth]
p = 3
q = 2
r = 1
[study]
n_grid = 60 120
replications = 2
n_steps = 300
burn_in = 100
thin = 5
[output]
dir = {out}
[run]
seed = 3
"""

SUMMARIZE = """
[data]
chain_file = {out}.bin
[output]
dir = {out}
"""

DIVERGENCE = """
[family]
family = gaussian
[divergence]
theta_file = {out}.csv
zeta_file = {out}.csv
[output]
dir = {out}
"""

VERIFY = """
[family]
family = gaussian
[study]
trials = 20
[output]
dir = {out}
"""


def strict_json(path):
    """The JSON file at ``path``, parsed as RFC 8259 has it: NaN, Infinity
    and -Infinity are errors."""
    def reject(name):
        raise ValueError(f"{path} holds {name}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def run_generate(tmp_path):
    data_dir = tmp_path / "data"
    cfg = write_ini(tmp_path / "gen.ini", GEN.format(out=data_dir))
    assert main(["generate", cfg]) == 0
    return data_dir


class TestConfigParsing:
    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", "[bogus]\nx = 1\n")
        assert main(["generate", cfg]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", "[family]\nfamily = gaussian\nzz = 1\n")
        assert main(["generate", cfg]) == EXIT_CONFIG

    def test_alpha_out_of_range_rejected(self, tmp_path):
        data = run_generate(tmp_path)
        bad = FIT.format(data=data, out=tmp_path / "f").replace(
            "alpha = 0.5", "alpha = 1.5")
        cfg = write_ini(tmp_path / "f.ini", bad)
        assert main(["fit", cfg]) == EXIT_CONFIG

    def test_round_trip(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", GEN.format(out=tmp_path / "o"))
        parsed = read_config(cfg)
        text = canonical_text(parsed)
        again = write_ini(tmp_path / "c2.ini", text)
        assert read_config(again) == parsed

    def test_unread_study_alphas_rejected(self, tmp_path):
        text = RATE.format(out=tmp_path / "o").replace(
            "thin = 5\n", "thin = 5\nalphas = 0.5\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["rate-study", cfg]) == EXIT_CONFIG

    def test_family_from_config(self):
        spec = family_from_config(ConfigReader(
            "generate", {"family": {"family": "negbin_log", "k": "2.5"}}))
        assert spec.family == "negbin_log" and spec.k == 2.5

    @pytest.mark.parametrize("text", [
        "family = gaussian\n",
        "[family]\nfamily = gaussian\n[family]\na = 2\n",
        "[family]\nfamily = gaussian\nfamily = poisson_log\n",
        GEN.replace("dir = {out}", "dir = {out}%"),
    ], ids=["no_section_header", "duplicate_section", "duplicate_key",
            "bare_percent"])
    def test_malformed_ini_is_config_error(self, tmp_path, text):
        cfg = write_ini(tmp_path / "c.ini", text.format(out=tmp_path / "o"))
        assert main(["generate", cfg]) == EXIT_CONFIG
        assert os.listdir(tmp_path) == ["c.ini"]

    def test_non_numeric_family_value_rejected(self, tmp_path):
        text = GEN.format(out=tmp_path / "o").replace(
            "family = gaussian", "family = gaussian\na = abc")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["generate", cfg]) == EXIT_CONFIG


class TestGenerate:
    def test_outputs_and_rank(self, tmp_path):
        data = run_generate(tmp_path)
        for name in ("X.csv", "Y.csv", "truth.csv", "meta.ini",
                     "manifest.json"):
            assert (data / name).exists()
        truth = np.loadtxt(data / "truth.csv", delimiter=",")
        s = np.linalg.svd(truth, compute_uv=False)
        assert np.sum(s > 1e-10) == 2

    def test_rank_zero_truth(self, tmp_path):
        cfg = write_ini(tmp_path / "g.ini",
                        GEN.format(out=tmp_path / "d").replace("r = 2", "r = 0"))
        assert main(["generate", cfg]) == 0
        truth = np.loadtxt(tmp_path / "d" / "truth.csv", delimiter=",")
        assert np.all(truth == 0)

    def test_byte_identical_rerun(self, tmp_path):
        data = run_generate(tmp_path)
        before = {f: (data / f).read_bytes() for f in os.listdir(data)}
        cfg = write_ini(tmp_path / "gen.ini", GEN.format(out=data))
        assert main(["generate", cfg]) == 0
        after = {f: (data / f).read_bytes() for f in os.listdir(data)}
        assert before == after

    @pytest.mark.parametrize("line,code", [
        ("calibrate = true", 0), ("calibrate = false", 0),
        ("calibrate = yes", EXIT_CONFIG), ("calibrate = 1", EXIT_CONFIG),
        ("mode = fixed", EXIT_CONFIG),
        ("calibrate = false\nscale = 0.5", 0),
        ("calibrate = false\nscale = 0", EXIT_CONFIG),
        ("calibrate = false\nscale = nan", EXIT_CONFIG),
        ("scale = 0.5", EXIT_CONFIG),
    ], ids=["calibrate_true", "calibrate_false", "calibrate_yes",
            "calibrate_1", "mode_fixed", "scale_uncalibrated", "scale_0",
            "scale_nan", "scale_calibrated"])
    def test_bad_truth_or_design_is_config_error(self, tmp_path, line, code):
        """calibrate is true or false and the design mode a known one;
        calibrate = false alone reads scale, which must be finite and
        nonzero to scale a truth; anything else exits 2 before any
        output, before [output] dir is made."""
        out = tmp_path / "d"
        section = "[design]" if line.startswith("mode") else "[truth]"
        text = GEN.format(out=out).replace(section, f"{section}\n{line}")
        assert main(["generate", write_ini(tmp_path / "g.ini", text)]) == code
        assert (out / "X.csv").exists() == out.exists() == (code == 0)

    @pytest.mark.parametrize("old,new", [
        ("n = 40", "n = 0"), ("p = 4", "p = 0"), ("q = 3", "q = 0"),
        ("r = 2", "r = 4"), ("r = 2", "r = -1"),
    ], ids=["n_0", "p_0", "q_0", "r_above_min_pq", "r_negative"])
    def test_out_of_range_size_is_config_error(self, tmp_path, old, new):
        """n, p and q are at least 1 and 0 <= r <= min(p, q); anything else
        exits 2 before any output."""
        out = tmp_path / "d"
        text = GEN.format(out=out)
        assert old in text
        cfg = write_ini(tmp_path / "g.ini", text.replace(old, new))
        assert main(["generate", cfg]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("family", [
        "gaussian\nk = 7", "poisson_log\nclip_margin = 0.5",
        "gamma_log\nk = 2"],
        ids=["gaussian_k", "poisson_log_clip_margin", "gamma_log_k"])
    def test_setting_the_law_never_reads_is_config_error(self, tmp_path,
                                                         family):
        """Only negbin_log reads k (gamma's shape is 1/a), and no family
        reads a clip_margin; either given exits 2 before any output."""
        out = tmp_path / "d"
        text = GEN.format(out=out).replace("family = gaussian",
                                           f"family = {family}")
        assert main(["generate", write_ini(tmp_path / "g.ini", text)]) \
            == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("family,spec", [
        ("gaussian", FamilySpec("gaussian")),
        ("poisson_log", FamilySpec("poisson_log")),
        ("negbin_log", FamilySpec("negbin_log")),
        ("gamma_log\na = 0.5\ntheta_hi = -1e-6",
         FamilySpec("gamma_log", a=0.5, theta_hi=-1e-6)),
    ], ids=["gaussian", "poisson_log", "negbin_log", "gamma_log"])
    def test_meta_ini_round_trip(self, tmp_path, family, spec):
        """meta.ini writes the five [family] keys, k at 1 where the law
        does not read it and the resolved theta_hi; fit loads the dataset
        and takes a [family] section with the same settings as matching
        it.  A linear predictor past the interval lands on the loaded
        theta_hi."""
        data, out = tmp_path / "data", tmp_path / "fit"
        for command, template in (("generate", GEN), ("fit", FIT)):
            text = template.format(out=out if command == "fit" else data,
                                   data=data)
            cfg = write_ini(tmp_path / f"{command}.ini", text.replace(
                "family = gaussian", f"family = {family}"))
            assert main([command, cfg]) == 0
        meta = read_config(data / "meta.ini")["family"]
        assert sorted(meta) == ["a", "family", "k", "theta_hi", "theta_lo"]
        loaded = cli.load_dataset(data).family
        assert loaded == spec and loaded.k == 1.0
        assert theta_from_eta(loaded, 20.0) == min(loaded.theta_hi, 20.0)

    @pytest.mark.parametrize("family", [
        "gaussian\ntheta_lo = nan", "gaussian\ntheta_hi = nan",
        "gaussian\ntheta_lo = inf", "gaussian\na = inf",
        "negbin_log\nk = inf"],
        ids=["theta_lo_nan", "theta_hi_nan", "theta_lo_inf", "a_inf",
             "negbin_k_inf"])
    def test_non_finite_family_value_is_config_error(self, tmp_path, family):
        """A NaN interval end, theta_lo = +inf, or a non-finite a or k
        exits 2 before [output] dir is made, not 4 (or 0) after it."""
        out = tmp_path / "d"
        text = GEN.format(out=out).replace("family = gaussian",
                                           f"family = {family}")
        assert main(["generate", write_ini(tmp_path / "g.ini", text)]) \
            == EXIT_CONFIG
        assert not out.exists()

    def test_gamma_theta_hi_below_the_margin_is_used(self, tmp_path):
        """On gamma_log a theta_hi between -CLIP_MARGIN and 0 is the upper
        end that clipped cells are drawn at, so it changes Y.csv; one at or
        above 0 resolves to -CLIP_MARGIN, the default.  An uncalibrated
        truth puts some cells past the clip."""
        ys = []
        for name, line in (("default", ""), ("above", "\ntheta_hi = 5"),
                           ("below", "\ntheta_hi = -1e-6")):
            out = tmp_path / name
            text = GEN.format(out=out).replace(
                "family = gaussian", "family = gamma_log" + line).replace(
                "r = 2", "r = 2\ncalibrate = false\nscale = 3")
            assert main(["generate", write_ini(tmp_path / f"{name}.ini",
                                               text)]) == 0
            ys.append((out / "Y.csv").read_bytes())
        assert ys[0] == ys[1] != ys[2]

    def test_calibrate_false_keeps_the_scale(self, tmp_path):
        """calibrate = false leaves the drawn truth at [truth] scale; the
        default rescales it, so the two truths differ."""
        truths = []
        for value in ("true", "false"):
            out = tmp_path / value
            text = GEN.format(out=out).replace(
                "r = 2", f"r = 2\ncalibrate = {value}")
            assert main(["generate", write_ini(tmp_path / f"{value}.ini",
                                               text)]) == 0
            truths.append(np.loadtxt(out / "truth.csv", delimiter=","))
        assert not np.array_equal(*truths)


class TestFitAndSummarize:
    def test_fit_pipeline(self, tmp_path):
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        cfg = write_ini(tmp_path / "f.ini", FIT.format(data=data, out=out))
        assert main(["fit", cfg]) == 0
        summary = json.loads((out / "fit_summary.json").read_text())
        assert 0.0 < summary["acceptance_rate"] <= 1.0
        bhat = np.loadtxt(out / "bhat.csv", delimiter=",")
        assert bhat.shape == (4, 3)

    def test_digest_reads_the_interval(self, tmp_path):
        """A dataset whose meta.ini interval is edited fits to another
        bhat.csv and reports another dataset_digest."""
        data = tmp_path / "data"
        gen = GEN.format(out=data).replace(
            "family = gaussian",
            "family = bernoulli_logit\ntheta_lo = -2\ntheta_hi = 2").replace(
            "seed = 5", "seed = 1")
        assert main(["generate", write_ini(tmp_path / "g.ini", gen)]) == 0
        outs = []
        for lo, hi in (("-2", "2"), ("-0.5", "0.5")):
            meta = (data / "meta.ini").read_text()
            meta = re.sub(r"theta_lo = \S+", f"theta_lo = {lo}", meta)
            (data / "meta.ini").write_text(
                re.sub(r"theta_hi = \S+", f"theta_hi = {hi}", meta))
            out = tmp_path / f"fit{lo}"
            # a wide prior, so that B reaches cells the intervals clip
            fit = FIT.format(data=data, out=out).replace(
                "[family]\nfamily = gaussian\n", "").replace(
                "seed = 5", "seed = 1").replace(
                "theorem1", "manual\ntau_manual = 1")
            assert main(["fit", write_ini(tmp_path / "f.ini", fit)]) == 0
            outs.append(out)
        a, b = (strict_json(out / "fit_summary.json") for out in outs)
        assert (outs[0] / "bhat.csv").read_bytes() \
            != (outs[1] / "bhat.csv").read_bytes()
        assert a["dataset_digest"] != b["dataset_digest"]

    @pytest.mark.parametrize("old,new", [
        ("n_steps = 300", "n_steps = 0"),
        ("thin = 3", "thin = 0"),
        ("thin = 3", "thin = 3\nalgorithm = hmc"),
        ("burn_in = 100", "burn_in = 300"),     # would retain no sample
        ("thin = 3", "thin = 3\nstep_size = inf"),
        ("thin = 3", "thin = 3\nstep_size = 1e308"),   # 2 step_size = inf
    ], ids=["n_steps_0", "thin_0", "hmc", "burn_in_n_steps", "step_size_inf",
            "step_size_1e308"])
    def test_bad_sampler_is_config_error(self, tmp_path, old, new):
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        text = FIT.format(data=data, out=out)
        assert old in text
        cfg = write_ini(tmp_path / "f.ini", text.replace(old, new))
        assert main(["fit", cfg]) == EXIT_CONFIG
        assert not (out / "chain.bin").exists()

    def test_sampler_failure_is_numeric_error(self, tmp_path, capsys):
        """Proposals that overflow are rejections, so the chain never
        accepts and fit exits 4, not 3 (the prior's ValueError), naming the
        exception's type on the first line of stderr and printing the
        traceback, down to the raising frame, after it."""
        data_dir = tmp_path / "data"
        gen = GEN.replace("family = gaussian", "family = poisson_log")
        assert main(["generate", write_ini(tmp_path / "gen.ini",
                                           gen.format(out=data_dir))]) == 0
        out = tmp_path / "fit"
        text = FIT.format(data=data_dir, out=out).replace(
            "thin = 3", "thin = 3\nstep_size = 1e160").replace(
            "family = gaussian", "family = poisson_log")
        assert main(["fit", write_ini(tmp_path / "f.ini", text)]) \
            == EXIT_NUMERIC
        first, *trace = capsys.readouterr().err.splitlines()
        assert first.startswith("error: SamplerDivergence: chain 0 accepted "
                                "no proposal")
        assert trace[0] == "Traceback (most recent call last):"
        assert any(line.strip().startswith("File ")
                   and line.endswith(", in _mala") for line in trace)
        assert not (out / "chain.bin").exists()

    @pytest.mark.parametrize("old,new", [
        ("tau_preset = theorem1", "tau_preset = theorem2"),
        ("tau_preset = theorem1", "tau_preset = manual\ntau_manual = 0"),
        ("tau_preset = theorem1",
         "tau_preset = manual\ntau_manual = 1e-200"),
        ("tau_preset = theorem1",
         "tau_preset = manual\ntau_manual = 1e-155"),
        ("tau_preset = theorem1", "tau_preset = manual\ntau_manual = inf"),
        ("tau_preset = theorem1",
         "tau_preset = manual\ntau_manual = 2.1e-154"),
        ("family = gaussian", "family = poisson_log"),
        ("family = gaussian", "family = gaussian\na = 2"),
    ], ids=["unknown_preset", "manual_tau_0", "manual_tau_1e-200",
            "manual_tau_1e-155", "manual_tau_inf", "manual_tau_2.1e-154",
            "family", "dispersion"])
    def test_bad_prior_or_family_is_config_error(self, tmp_path, old, new):
        """fit reads [family] and exits 2 where it differs from the
        dataset's meta.ini; a matching section (test_fit_pipeline) runs.
        A manual tau whose square underflows to 0 or overflows, or whose
        2 / tau^2 overflows (1e-155), would give a NaN prior at B = 0, so it
        is a config error too, and so is one whose default step size
        0.5 tau^2 / (p + q + 2) is subnormal (2.1e-154 at p + q + 2 = 9)."""
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        text = FIT.format(data=data, out=out)
        cfg = write_ini(tmp_path / "f.ini", text.replace(old, new))
        assert main(["fit", cfg]) == EXIT_CONFIG
        assert not (out / "chain.bin").exists()

    def test_manual_tau_is_the_sampled_prior(self, tmp_path):
        """Under tau_preset = manual, fit samples the prior at tau_manual:
        its chain is run_sampler's at that tau."""
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        text = FIT.format(data=data, out=out).replace(
            "tau_preset = theorem1", "tau_preset = manual\ntau_manual = 0.25")
        assert main(["fit", write_ini(tmp_path / "f.ini", text)]) == 0
        chain = run_sampler(cli.load_dataset(data),
                            PriorConfig(tau=0.25, p=4, q=3),
                            FractionalConfig(alpha=0.5, n_steps=300,
                                             burn_in=100, thin=3, seed=5))
        assert np.array_equal(cli.load_chain(out / "chain.bin").log_post,
                              chain.log_post)

    def test_tau_manual_under_theorem_preset_is_config_error(self, tmp_path):
        """fit reads tau_manual only under the manual preset."""
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        text = FIT.format(data=data, out=out).replace(
            "tau_preset = theorem1", "tau_preset = theorem1\ntau_manual = 0.5")
        assert main(["fit", write_ini(tmp_path / "f.ini", text)]) \
            == EXIT_CONFIG
        assert not out.exists()

    def test_prior_is_checked_before_the_dataset(self, tmp_path):
        """An unknown preset is a config error even where the dataset is
        missing, which would be a data error."""
        text = FIT.format(data=tmp_path / "nope", out=tmp_path / "f").replace(
            "tau_preset = theorem1", "tau_preset = theorem2")
        assert main(["fit", write_ini(tmp_path / "f.ini", text)]) \
            == EXIT_CONFIG

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_ini(tmp_path / "f.ini",
                        FIT.format(data=tmp_path / "nope", out=tmp_path / "f"))
        assert main(["fit", cfg]) == EXIT_DATA

    @pytest.mark.parametrize("old,new,cause", [
        ("theta_hi = inf\n", "", "KeyError"),
        ("[family]\n", "", "MissingSectionHeaderError"),
        ("[family]\n", "[family]\nclip_margin = 0.001\n",
         "DataError: meta.ini [family] holds clip_margin")],
        ids=["no_theta_hi", "no_section_header", "extra_clip_margin"])
    def test_broken_meta_ini_is_data_error(self, tmp_path, capsys, old, new,
                                           cause):
        """A meta.ini that lacks a key, that configparser cannot parse, or
        whose [family] holds a key load_dataset does not read (the
        clip_margin of a dataset written before theta_hi held the upper
        end) exits 3 with its cause on stderr, not a traceback."""
        data = run_generate(tmp_path)
        meta = data / "meta.ini"
        text = meta.read_text()
        assert old in text
        meta.write_text(text.replace(old, new))
        out = tmp_path / "fit"
        cfg = write_ini(tmp_path / "f.ini", FIT.format(data=data, out=out))
        capsys.readouterr()
        assert main(["fit", cfg]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("data error: dataset invalid: " + cause)
        assert "Traceback (most recent call last):" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("prior", [
        "tau_preset = theorem1", "tau_preset = manual\ntau_manual = 0.5"],
        ids=["theorem1", "manual"])
    def test_non_finite_design_is_data_error(self, tmp_path, capsys, prior):
        """One NaN in X.csv exits 3 under either preset: not 2 from a
        theorem preset's tau, which scales with the norm of X, and not 4
        from a sampler that starts at a non-finite target."""
        data = run_generate(tmp_path)
        X = np.loadtxt(data / "X.csv", delimiter=",")
        X[3, 1] = np.nan
        cli.write_matrix(data / "X.csv", X)
        text = FIT.format(data=data, out=tmp_path / "fit").replace(
            "tau_preset = theorem1", prior)
        assert main(["fit", write_ini(tmp_path / "f.ini", text)]) == EXIT_DATA
        assert "X has a non-finite entry" in capsys.readouterr().err

    def test_zero_design_is_data_error(self, tmp_path, capsys):
        """A theorem preset scales tau by the norm of X, so an all-zero
        design is a data error."""
        data = run_generate(tmp_path)
        cli.write_matrix(data / "X.csv", np.zeros((40, 4)))
        cfg = write_ini(tmp_path / "f.ini",
                        FIT.format(data=data, out=tmp_path / "fit"))
        assert main(["fit", cfg]) == EXIT_DATA
        assert "x_frob must be positive" in capsys.readouterr().err

    def test_summarize_matches_fit(self, tmp_path):
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        cfg = write_ini(tmp_path / "f.ini", FIT.format(data=data, out=out))
        assert main(["fit", cfg]) == 0
        sum_out = tmp_path / "sum"
        scfg = write_ini(tmp_path / "s.ini", (
            f"[data]\nchain_file = {out / 'chain.bin'}\n"
            f"[output]\ndir = {sum_out}\n"))
        assert main(["summarize", scfg]) == 0
        assert (out / "bhat.csv").read_bytes() == \
            (sum_out / "bhat.csv").read_bytes()
        # summarize draws no random number: its manifest records no seed
        manifest = json.loads((sum_out / "manifest.json").read_text())
        assert manifest["seed"] is None

    def test_missing_sidecar_is_data_error(self, tmp_path, capsys):
        """A sidecar that is missing, one value wide though its 3m values
        would fill m rows of three, or with an accepted value other than 0
        or 1 (2 and 0.5, or NaN, which a cast to bool would count as
        accepted), exits 3."""
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        cfg = write_ini(tmp_path / "f.ini", FIT.format(data=data, out=out))
        assert main(["fit", cfg]) == 0
        side = out / "chain.bin.csv"
        text = side.read_text()
        scfg = write_ini(tmp_path / "s.ini", (
            f"[data]\nchain_file = {out / 'chain.bin'}\n"
            f"[output]\ndir = {tmp_path / 'sum'}\n"))
        header, *rows = text.splitlines()
        for bad in (["2", "0.5"], ["nan"]):
            edited = [row.rsplit(",", 1)[0] + "," + flag
                      for row, flag in zip(rows, bad)] + rows[len(bad):]
            side.write_text("\n".join([header] + edited) + "\n")
            assert main(["summarize", scfg]) == EXIT_DATA
            assert "accepted values are not all 0 or 1" \
                in capsys.readouterr().err
        side.write_text(text)
        assert main(["summarize", scfg]) == 0
        (tmp_path / "sum" / "summary.json").unlink()
        values = np.loadtxt(side, delimiter=",", skiprows=1).ravel()
        side.write_text("value\n" + "".join(f"{v:.17g}\n" for v in values))
        assert main(["summarize", scfg]) == EXIT_DATA
        assert "rows hold 1 values, expected 3" in capsys.readouterr().err
        side.unlink()
        assert main(["summarize", scfg]) == EXIT_DATA
        assert not (tmp_path / "sum" / "summary.json").exists()

    @staticmethod
    def summarize_cut_chain(tmp_path, keep):
        """Fit, keep the bytes ``keep`` (a slice) of chain.bin and run
        summarize on it; returns its exit code."""
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        cfg = write_ini(tmp_path / "f.ini", FIT.format(data=data, out=out))
        assert main(["fit", cfg]) == 0
        chain_file = out / "chain.bin"
        chain_file.write_bytes(chain_file.read_bytes()[keep])
        scfg = write_ini(tmp_path / "s.ini", (
            f"[data]\nchain_file = {chain_file}\n"
            f"[output]\ndir = {tmp_path / 'sum'}\n"))
        return main(["summarize", scfg])

    def test_truncated_chain_header_is_data_error(self, tmp_path):
        """A chain file cut inside its header exits 3, like any other bad
        chain, and writes no summary."""
        assert self.summarize_cut_chain(tmp_path, slice(20)) == EXIT_DATA
        assert not (tmp_path / "sum" / "summary.json").exists()

    def test_truncated_chain_samples_are_data_error(self, tmp_path,
                                                    capsys):
        """A chain file cut inside its sample block, or whose header gives
        sizes of more bytes than a read can ask for, exits 3 and writes no
        summary."""
        assert self.summarize_cut_chain(tmp_path, slice(-8)) == EXIT_DATA
        assert "fewer than" in capsys.readouterr().err
        chain_file = tmp_path / "fit" / "chain.bin"
        big = 2 ** 31 - 1
        chain_file.write_bytes(cli.CHAIN_MAGIC + cli.CHAIN_HEADER.pack(
            big, big, big, 0.5, 0.1)
            + chain_file.read_bytes()[8 + cli.CHAIN_HEADER.size:])
        assert main(["summarize", str(tmp_path / "s.ini")]) == EXIT_DATA
        assert "fewer than 2147483647 samples" in capsys.readouterr().err
        assert not (tmp_path / "sum" / "summary.json").exists()

    @pytest.mark.parametrize("samples", [np.zeros((0, 2, 2)),
                                         np.full((2, 2, 2), np.nan)],
                             ids=["no_sample", "nan_samples"])
    def test_chain_without_finite_samples_is_data_error(self, tmp_path,
                                                         samples):
        """A chain file with no sample, or with a non-finite one, gives no
        posterior mean."""
        chain_file = tmp_path / "chain.bin"
        chain_file.write_bytes(cli.CHAIN_MAGIC + cli.CHAIN_HEADER.pack(
            2, 2, len(samples), 0.5, 0.1) + samples.tobytes())
        (tmp_path / "chain.bin.csv").write_text(
            "step,log_post,accepted\n" + "0,1,1\n" * len(samples))
        scfg = write_ini(tmp_path / "s.ini", (
            f"[data]\nchain_file = {chain_file}\n"
            f"[output]\ndir = {tmp_path / 'sum'}\n"))
        assert main(["summarize", scfg]) == EXIT_DATA
        assert not (tmp_path / "sum" / "summary.json").exists()


class TestDivergenceCommand:
    def test_identical_inputs_zero_report(self, tmp_path):
        th = tmp_path / "th.csv"
        np.savetxt(th, np.full((2, 2), 0.3), delimiter=",")
        out = tmp_path / "div"
        cfg = write_ini(tmp_path / "d.ini", (
            "[family]\nfamily = bernoulli_logit\n"
            f"[divergence]\ntheta_file = {th}\nzeta_file = {th}\n"
            f"[output]\ndir = {out}\n"))
        assert main(["divergence", cfg]) == 0
        rows = (out / "divergence.csv").read_text().splitlines()[1:]
        for row in rows:
            metric, _, avg, tot, _ = row.split(",")
            assert float(avg) == 0.0 and float(tot) == 0.0

    def test_csv_format(self, tmp_path):
        th, ze = tmp_path / "th.csv", tmp_path / "ze.csv"
        np.savetxt(th, [[0.3]], delimiter=",")
        np.savetxt(ze, [[0.1]], delimiter=",")
        out = tmp_path / "div"
        cfg = write_ini(tmp_path / "d.ini", (
            "[family]\nfamily = gaussian\n"
            f"[divergence]\ntheta_file = {th}\nzeta_file = {ze}\n"
            f"[output]\ndir = {out}\n"))
        assert main(["divergence", cfg]) == 0
        lines = (out / "divergence.csv").read_text().splitlines()
        assert lines[0] == "metric,alpha,per_entry_avg,total,normalization"
        assert lines[1].startswith("kl,")

    @pytest.mark.parametrize("alphas", ["0.5 1.0", ""], ids=["one", "empty"])
    def test_bad_alphas_are_config_error(self, tmp_path, alphas):
        out = tmp_path / "div"
        text = DIVERGENCE.format(out=out).replace(
            "[output]", f"alphas = {alphas}\n[output]")
        assert main(["divergence", write_ini(tmp_path / "d.ini", text)]) \
            == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("family,theta,zeta", [
        ("gaussian", [[0.3, 0.1]], [[0.3]]),
        ("gamma_log", [[-0.5, 0.0]], [[-0.5, -1.0]]),
        ("gaussian", np.empty((0, 2)), np.empty((0, 2))),
        ("gaussian", [[np.nan, 0.1]], [[0.3, 0.1]]),
    ], ids=["shapes_differ", "outside_domain", "empty_files", "nan_entry"])
    def test_bad_matrices_are_data_error(self, tmp_path, family, theta,
                                         zeta):
        th, ze = tmp_path / "th.csv", tmp_path / "ze.csv"
        np.savetxt(th, theta, delimiter=",")
        np.savetxt(ze, zeta, delimiter=",")
        out = tmp_path / "div"
        cfg = write_ini(tmp_path / "d.ini", (
            f"[family]\nfamily = {family}\n"
            f"[divergence]\ntheta_file = {th}\nzeta_file = {ze}\n"
            f"[output]\ndir = {out}\n"))
        assert main(["divergence", cfg]) == EXIT_DATA
        assert os.listdir(out) == []


class TestVerifyBoundsCommand:
    def test_gaussian_satisfied(self, tmp_path):
        out = tmp_path / "vb"
        cfg = write_ini(tmp_path / "v.ini", (
            "[family]\nfamily = gaussian\ntheta_lo = -3\ntheta_hi = 3\n"
            "[study]\ntrials = 500\n"
            f"[output]\ndir = {out}\n[run]\nseed = 9\n"))
        assert main(["verify-bounds", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["satisfied_fraction"] == 1.0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_config_error(self, tmp_path, trials):
        out = tmp_path / "vb"
        text = VERIFY.format(out=out).replace("trials = 20",
                                              f"trials = {trials}")
        assert main(["verify-bounds", write_ini(tmp_path / "v.ini",
                                                text)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unclipped_interval_gets_finite_bounds(self, tmp_path):
        """An interval wider than the sampling box takes its constants over
        the box, so no bound is infinite and the sweep tests something."""
        out = tmp_path / "vb"
        text = VERIFY.format(out=out).replace("family = gaussian",
                                              "family = poisson_log")
        assert main(["verify-bounds", write_ini(tmp_path / "v.ini",
                                                text)]) == 0
        assert "inf" not in (out / "bounds.csv").read_text()
        rows = np.loadtxt(out / "bounds.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 5] > 0)           # renyi_lower
        summary = json.loads((out / "summary.json").read_text())
        assert summary["satisfied_fraction"] == 1.0

    @pytest.mark.parametrize("command,template", [
        ("verify-bounds", VERIFY), ("rate-study", RATE)],
        ids=["verify_bounds", "rate"])
    @pytest.mark.parametrize("family", [
        "family = gamma_log\ntheta_lo = -2\ntheta_hi = -1e-200",
        "family = negbin_log\nk = 2\ntheta_hi = -1e-200",
    ], ids=["gamma", "negbin"])
    def test_theta_hi_where_b2_overflows_is_config_error(
            self, tmp_path, capsys, command, template, family):
        """b''(theta_hi) overflows at a theta_hi this close to 0: the
        command exits 2 before [output] dir is made, with no NumPy
        warning."""
        out = tmp_path / "o"
        text = template.format(out=out).replace("family = gaussian", family)
        assert main([command, write_ini(tmp_path / "c.ini", text)]) \
            == EXIT_CONFIG
        assert not out.exists()
        assert "Warning" not in capsys.readouterr().err

    def test_interval_outside_sampling_box_is_config_error(self, tmp_path):
        """The lemmas are checked on the interval within [-3, 3]; one that
        misses it leaves no box to sample."""
        out = tmp_path / "vb"
        text = VERIFY.format(out=out).replace(
            "family = gaussian",
            "family = gamma_log\ntheta_lo = -10\ntheta_hi = -5")
        assert main(["verify-bounds", write_ini(tmp_path / "v.ini",
                                                text)]) == EXIT_CONFIG
        assert not out.exists()

    def test_output_dir_that_is_a_file_is_config_error(self, tmp_path):
        out = tmp_path / "vb"
        out.write_text("")
        assert main(["verify-bounds", write_ini(
            tmp_path / "v.ini", VERIFY.format(out=out))]) == EXIT_CONFIG


def run_twice(tmp_path, command, template):
    """Run a study command into two directories; return both output dirs."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_ini(tmp_path / f"{tag}.ini", template.format(out=out))
        assert main([command, cfg]) == 0
        outs.append(out)
    return outs


def assert_same_bytes(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name != "manifest.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestRateStudyCommand:
    def test_outputs_and_rerun(self, tmp_path):
        out, again = run_twice(tmp_path, "rate-study", RATE)
        rows = (out / "rate_cells.csv").read_text().splitlines()
        assert rows[0] == ("n,r,rep,pred_err,pred_err_post,est_err,d_alpha,"
                           "prop1_bound,acceptance")
        assert len(rows) - 1 == 2 * 2           # cells x replications
        for name in ("error_vs_n.dat", "bound_vs_n.dat"):
            lines = (out / name).read_text().splitlines()
            assert [int(x.split()[0]) for x in lines] == [40, 80]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"cells", "hellinger_check", "slope",
                                "slope_se"}
        assert_same_bytes(out, again)

    @pytest.mark.parametrize("n_grid", ["40", "40 80"])
    def test_summary_is_strict_json(self, tmp_path, n_grid):
        """One size has no slope and two sizes no standard error: each is
        null, where a bare NaN would not be JSON."""
        out = tmp_path / "o"
        text = RATE.format(out=out).replace("n_grid = 40 80",
                                            f"n_grid = {n_grid}")
        assert main(["rate-study", write_ini(tmp_path / "c.ini", text)]) == 0
        summary = strict_json(out / "summary.json")
        assert summary["slope_se"] is None
        assert (summary["slope"] is None) == (n_grid == "40")

    @pytest.mark.parametrize("replications", [1, 2])
    def test_se_pred_err_is_the_sample_standard_error(self, tmp_path,
                                                      replications):
        """A cell's se_pred_err is the sample standard deviation (ddof = 1)
        of its prediction errors in rate_cells.csv over the square root of
        their count, and null at one replicate, which has no estimate."""
        out = tmp_path / "o"
        text = RATE.format(out=out).replace(
            "replications = 2", f"replications = {replications}")
        assert main(["rate-study", write_ini(tmp_path / "c.ini", text)]) == 0
        rows = np.genfromtxt(out / "rate_cells.csv", delimiter=",",
                             names=True)
        cells = strict_json(out / "summary.json")["cells"]
        assert [c["n"] for c in cells] == [40, 80]
        for cell in cells:
            err = rows["pred_err"][rows["n"] == cell["n"]]
            assert len(err) == replications
            if replications == 1:
                assert cell["se_pred_err"] is None
            else:
                assert cell["se_pred_err"] == pytest.approx(
                    np.std(err, ddof=1) / np.sqrt(replications), rel=1e-12)

    def test_unbounded_curvature_is_config_error(self, tmp_path):
        """poisson_log unbounded above has C_U = inf, so every theorem bound
        would be infinite: exit 2 before the output dir is made."""
        out = tmp_path / "o"
        text = RATE.format(out=out).replace(
            "family = gaussian", "family = poisson_log\ntheta_lo = -2")
        assert main(["rate-study", write_ini(tmp_path / "c.ini", text)]) \
            == EXIT_CONFIG
        assert not out.exists()


    def test_sampler_alpha_is_the_reported_order(self, tmp_path):
        out = tmp_path / "o"
        text = RATE.format(out=out) + "[sampler]\nalpha = 0.6\n"
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["rate-study", cfg]) == 0
        rows = np.genfromtxt(out / "rate_cells.csv", delimiter=",",
                             names=True)
        assert len(rows) == 2 * 2
        assert np.all(np.isfinite(rows["d_alpha"]))
        assert np.all(rows["d_alpha"] >= 0)

    def test_failed_study_leaves_a_partial_row(self, tmp_path, monkeypatch,
                                               capsys):
        """A study that raises leaves a PARTIAL row in place of the cells,
        exits 4 and writes no manifest."""
        def fail(study):
            raise RuntimeError("study failed")

        monkeypatch.setattr(cli, "run_rate_study", fail)
        out = tmp_path / "o"
        cfg = write_ini(tmp_path / "c.ini", RATE.format(out=out))
        assert main(["rate-study", cfg]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "RuntimeError: study failed"
        assert (out / "rate_cells.csv").read_text() == (
            "n,r,rep,pred_err,pred_err_post,est_err,d_alpha,prop1_bound,"
            "acceptance\nPARTIAL,,,,,,,,\n")
        assert not (out / "manifest.json").exists()


class TestStudyConfigErrors:
    """A study config the sampler would reject exits 2 before any study
    work, and writes no cell table."""

    @pytest.mark.parametrize("command,template", [
        ("rate-study", RATE), ("misspec", MISSPEC)], ids=["rate", "misspec"])
    @pytest.mark.parametrize("old,new", [
        ("replications = 2", "replications = 0"),
        ("burn_in = 100", "burn_in = 300"),     # would retain no sample
        ("thin = 5", "thin = 0"),
        ("[output]", "[sampler]\nalpha = 1.0\n[output]"),
        ("p = 3", "p = 0"),
        ("q = 2", "q = 0"),
        ("r = 1", "r = 5"),                     # above min(p, q) = 2
        ("r = 1", "r = -1"),
        ("n_grid = ", "n_grid = 0 "),
    ], ids=["replications_0", "burn_in_n_steps", "thin_0", "alpha_1", "p_0",
            "q_0", "r_above_min_pq", "r_negative", "n_grid_0"])
    def test_bad_study_is_config_error(self, tmp_path, command, template,
                                       old, new):
        out = tmp_path / "o"
        text = template.format(out=out)
        assert old in text
        cfg = write_ini(tmp_path / "c.ini", text.replace(old, new))
        assert main([command, cfg]) == EXIT_CONFIG
        assert not (out / "rate_cells.csv").exists()
        assert not (out / "misspec_cells.csv").exists()

    @pytest.mark.parametrize("command,template", [
        ("rate-study", RATE), ("misspec", MISSPEC)], ids=["rate", "misspec"])
    def test_empty_n_grid_is_config_error(self, tmp_path, command, template):
        out = tmp_path / "o"
        text = re.sub(r"n_grid = .*", "n_grid =", template.format(out=out))
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main([command, cfg]) == EXIT_CONFIG
        assert not (out / "rate_cells.csv").exists()
        assert not (out / "misspec_cells.csv").exists()

    @pytest.mark.parametrize("old,new", [
        ("[output]", "[prior]\ntau_preset = manual\ntau_manual = 0.1\n"
                     "[output]"),
        ("[output]", "[prior]\ntau_preset = theorem2\n[output]"),
        ("[output]", "[design]\nmode = fixed\n[output]"),
        ("[output]", "[prior]\ntau_manual = 0.5\n[output]"),
        ("[output]", "[design]\nn = 50\n[output]"),
        ("thin = 5", "thin = 5\nr_grid = 9"),
        ("thin = 5", "thin = 5\nr_grid = 2\nn_ref = 0"),
        ("thin = 5", "thin = 5\nn_ref = 80"),
        ("thin = 5", "thin = 5\nr_grid = 1\nn_ref = 80"),
        ("thin = 5", "thin = 5\nr_grid = 2 0 2\nn_ref = 80"),
    ], ids=["manual_preset", "unknown_preset", "unknown_design_mode",
            "tau_manual", "design_n", "r_grid_above_min_pq", "n_ref_0",
            "n_ref_without_r_grid", "r_grid_repeats_r", "r_grid_repeats_rank"])
    def test_rate_study_bad_setting_is_config_error(self, tmp_path, old, new):
        """The rate study reads neither tau_manual nor [design] n, nor an
        n_ref without the r_grid whose ranks run at it, and takes no unknown
        preset or design mode, no n_ref below 1 and no r_grid rank that
        repeats r or another r_grid rank; each is a config error, raised
        before [output] dir is made."""
        out = tmp_path / "o"
        text = RATE.format(out=out).replace(old, new)
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["rate-study", cfg]) == EXIT_CONFIG
        assert not out.exists()

    def test_misspec_family_is_config_error(self, tmp_path):
        """misspec fixes its true and fitted families, so a [family]
        section it would ignore is rejected."""
        out = tmp_path / "o"
        text = "[family]\nfamily = bernoulli_logit\n" + MISSPEC.format(
            out=out)
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["misspec", cfg]) == EXIT_CONFIG
        assert not (out / "misspec_cells.csv").exists()

    @pytest.mark.parametrize("section", [
        "[prior]\ntau_preset = theorem1\n", "[design]\nmode = fixed\n",
        "[design]\nn = 5\n"], ids=["prior", "unknown_design_mode",
                                   "design_n"])
    def test_misspec_unread_setting_is_config_error(self, tmp_path, section):
        """misspec fixes its tau preset and takes n from [study] n_grid, so
        [prior] and [design] n are rejected; it reads [design] mode, so an
        unknown mode is rejected too."""
        out = tmp_path / "o"
        cfg = write_ini(tmp_path / "c.ini", section + MISSPEC.format(out=out))
        assert main(["misspec", cfg]) == EXIT_CONFIG
        assert not (out / "misspec_cells.csv").exists()

    @pytest.mark.parametrize("family", ["bernoulli_probit", "poisson_log"])
    def test_zero_c_l_family_is_config_error(self, tmp_path, family):
        """An unbounded family has C_L = 0, which the rate study's bound
        divides by: a config error, not a numeric failure."""
        out = tmp_path / "o"
        text = RATE.format(out=out).replace("family = gaussian",
                                            f"family = {family}")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["rate-study", cfg]) == EXIT_CONFIG
        assert not (out / "rate_cells.csv").exists()


class TestMisspecCommand:
    def test_outputs_and_rerun(self, tmp_path):
        out, again = run_twice(tmp_path, "misspec", MISSPEC)
        rows = (out / "misspec_cells.csv").read_text().splitlines()
        assert rows[0] == ("n,rep,lhs_pred,d_alpha,oracle_rhs,theorem2_rhs,"
                           "kl_floor")
        assert len(rows) - 1 == 2 * 2           # cells x replications
        lines = (out / "dalpha_vs_n.dat").read_text().splitlines()
        assert [int(x.split()[0]) for x in lines] == [60, 120]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"cells"}
        assert_same_bytes(out, again)

    def test_study_thin_is_read(self, tmp_path, monkeypatch, capsys):
        seen = {}

        def capture(study):
            seen["thin"] = study.thin
            raise RuntimeError("stop after capturing the config")

        monkeypatch.setattr(cli, "run_misspec_study", capture)
        text = MISSPEC.format(out=tmp_path / "o").replace("thin = 5",
                                                          "thin = 7")
        cfg = write_ini(tmp_path / "m.ini", text)
        assert main(["misspec", cfg]) == EXIT_NUMERIC
        assert seen["thin"] == 7
        assert capsys.readouterr().err.splitlines()[-1] == STOP

    def test_design_mode_is_read(self, tmp_path, monkeypatch, capsys):
        seen = {}

        def capture(study):
            seen["mode"] = study.design_mode
            raise RuntimeError("stop after capturing the config")

        monkeypatch.setattr(cli, "run_misspec_study", capture)
        text = "[design]\nmode = normalized\n" + MISSPEC.format(
            out=tmp_path / "o")
        cfg = write_ini(tmp_path / "m.ini", text)
        assert main(["misspec", cfg]) == EXIT_NUMERIC
        assert seen["mode"] == "normalized"
        assert capsys.readouterr().err.splitlines()[-1] == STOP


class TestConfigContract:
    """A command accepts exactly the sections and keys it reads, and a key
    left out takes the default of the config class it fills."""

    @pytest.mark.parametrize("command,template,section,line", [
        ("generate", GEN, "[sampler]", "alpha = 0.5"),
        ("fit", FIT, "[truth]", "p = 4"),
        ("summarize", SUMMARIZE, "[family]", "family = gaussian"),
        ("divergence", DIVERGENCE, "[study]", "trials = 10"),
        ("verify-bounds", VERIFY, "[sampler]", "alpha = 0.5"),
        ("rate-study", RATE, "[divergence]", "alphas = 0.5"),
        ("misspec", MISSPEC, "[study]", "r_grid = 2"),
        ("summarize", SUMMARIZE, "[run]", "seed = 1"),
        ("divergence", DIVERGENCE, "[run]", "seed = 1"),
    ], ids=["generate", "fit", "summarize", "divergence", "verify_bounds",
            "rate", "misspec", "summarize_seed", "divergence_seed"])
    def test_key_of_another_command_is_config_error(
            self, tmp_path, capsys, command, template, section, line):
        """Each key is one that only another command reads; the command
        exits 2 naming it, before it makes its output directory."""
        out = tmp_path / "o"
        text = template.format(out=out, data=tmp_path / "data")
        if section in text:
            text = text.replace(section, f"{section}\n{line}")
        else:
            text += f"{section}\n{line}\n"
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main([command, cfg]) == EXIT_CONFIG
        key = line.split()[0]
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("config error: ")
        assert f"{command} reads no {section} {key}" in err[-1]
        assert "Traceback (most recent call last):" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,template,line", [
        ("generate", GEN, "dir = {out}"),
        ("fit", FIT, "dataset_dir = {data}"),
        ("summarize", SUMMARIZE, "chain_file = {out}.bin"),
        ("divergence", DIVERGENCE, "theta_file = {out}.csv"),
    ], ids=["output_dir", "dataset_dir", "chain_file", "theta_file"])
    def test_missing_required_key_is_config_error(
            self, tmp_path, capsys, command, template, line):
        """A key the command cannot run without exits 2 naming it, before
        any output or data is touched."""
        assert line in template
        out = tmp_path / "o"
        text = template.replace(line + "\n", "").format(
            out=out, data=tmp_path / "data")
        assert main([command, write_ini(tmp_path / "c.ini", text)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("config error: ")
        assert line.split()[0] in err[-1]
        assert not out.exists()

    @pytest.mark.parametrize("command,runner,text,expected", [
        ("rate-study", "run_rate_study", "[family]\nfamily = gaussian\n",
         RateStudyConfig(family=FamilySpec("gaussian"))),
        ("misspec", "run_misspec_study", "", MisspecConfig()),
    ], ids=["rate", "misspec"])
    def test_minimal_study_takes_the_class_defaults(
            self, tmp_path, monkeypatch, capsys, command, runner, text,
            expected):
        seen = []

        def capture(study):
            seen.append(study)
            raise RuntimeError("stop after capturing the config")

        monkeypatch.setattr(cli, runner, capture)
        cfg = write_ini(tmp_path / "c.ini",
                        f"{text}[output]\ndir = {tmp_path / 'o'}\n")
        assert main([command, cfg]) == EXIT_NUMERIC
        assert seen == [expected]
        assert capsys.readouterr().err.splitlines()[-1] == STOP


class TestStartUp:
    def test_import_leaves_out_stats_and_integrate(self):
        """Only the brute-force oracles need scipy.stats, which loads
        scipy.integrate, so importing the CLI loads neither."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = ("import sys, frrr.cli; print(sorted(m for m in sys.modules "
                "if m in ('scipy.stats', 'scipy.integrate')))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("extra,code", [
        ("", cli.EXIT_OK), ("zz = 1\n", EXIT_CONFIG)], ids=["ok", "unread_key"])
    def test_module_exit_status_is_mains(self, tmp_path, extra, code):
        """``python -m frrr.cli`` exits with the code ``main`` returns."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        cfg = write_ini(tmp_path / "gen.ini",
                        GEN.format(out=tmp_path / "d") + extra)
        proc = subprocess.run(
            [sys.executable, "-m", "frrr.cli", "generate", cfg],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True)
        assert proc.returncode == code

    @staticmethod
    def scipy_modules_after(code):
        """The scipy modules loaded once ``code`` has run in a fresh
        interpreter that imports frrr from this source tree."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code += ("\nimport sys\nprint(json.dumps(sorted(m for m in "
                 "sys.modules if m.startswith('scipy'))))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", "import json\n" + code],
                              env=env, capture_output=True, text=True,
                              check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def pipeline_code(self, tmp_path, family):
        """Code that runs generate, fit and summarize on ``family`` through
        ``cli.main`` in one process and checks each exits 0."""
        data, fit_out = tmp_path / "data", tmp_path / "fit"
        argvs = [
            ["generate", write_ini(tmp_path / "gen.ini", GEN.format(
                out=data).replace("family = gaussian", f"family = {family}"))],
            ["fit", write_ini(tmp_path / "f.ini", FIT.format(
                data=data, out=fit_out).replace("family = gaussian",
                                                f"family = {family}"))],
            ["summarize", write_ini(tmp_path / "s.ini", (
                f"[data]\nchain_file = {fit_out / 'chain.bin'}\n"
                f"[output]\ndir = {tmp_path / 'sum'}\n"))],
        ]
        return ("from frrr.cli import main\n"
                f"for argv in {argvs!r}:\n"
                "    assert main(argv) == 0, argv\n")

    def test_import_loads_no_scipy(self):
        """Every SciPy function is imported where it is called, so neither
        the package nor the CLI loads SciPy on import."""
        assert self.scipy_modules_after("import frrr, frrr.cli") == []

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli_logit",
                                        "poisson_log"])
    def test_pipeline_loads_no_scipy(self, tmp_path, family):
        """Only the probit link needs SciPy: every other family's mean and
        draw are NumPy."""
        assert self.scipy_modules_after(
            self.pipeline_code(tmp_path, family)) == []

    def test_sample_prior_loads_no_scipy(self):
        """The prior draw builds its Wishart matrix from normals."""
        assert self.scipy_modules_after(
            "import numpy as np\n"
            "from frrr.prior import PriorConfig, sample_prior\n"
            "for p, q in [(2, 3), (3, 2)]:\n"
            "    sample_prior(PriorConfig(tau=0.5, p=p, q=q), 5,\n"
            "                 np.random.default_rng(0))\n") == []

    def test_probit_pipeline_loads_only_special(self, tmp_path):
        """The probit link needs scipy.special, and no command needs
        scipy.optimize, so it stays unloaded."""
        loaded = self.scipy_modules_after(
            self.pipeline_code(tmp_path, "bernoulli_probit"))
        assert "scipy.special" in loaded
        assert not [m for m in loaded if m.startswith("scipy.optimize")]

    @pytest.mark.parametrize("command,template", [
        ("rate-study", RATE), ("misspec", MISSPEC)], ids=["rate", "misspec"])
    def test_study_loads_no_optimize(self, tmp_path, command, template):
        """The ridge starts and the KL projection are Fisher-scoring fits in
        NumPy, so a study loads no scipy.optimize module."""
        argv = [command, write_ini(tmp_path / "c.ini",
                                   template.format(out=tmp_path / "o"))]
        loaded = self.scipy_modules_after(
            f"from frrr.cli import main\nassert main({argv!r}) == 0\n")
        assert not [m for m in loaded if m.startswith("scipy.optimize")]


class TestEmptyInputs:
    """A CSV input with no data row exits 3, naming the file, and lets no
    NumPy warning through."""

    @staticmethod
    def run_quietly(argv, capsys):
        """Exit code, stderr and the UserWarnings raised by ``main``."""
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        return code, capsys.readouterr().err, [
            w for w in caught if issubclass(w.category, UserWarning)]

    def test_empty_design_for_fit(self, tmp_path, capsys):
        data = run_generate(tmp_path)
        (data / "X.csv").write_text("")
        cfg = write_ini(tmp_path / "f.ini",
                        FIT.format(data=data, out=tmp_path / "fit"))
        code, err, caught = self.run_quietly(["fit", cfg], capsys)
        assert code == EXIT_DATA and caught == []
        assert "X.csv holds no data row" in err
        assert "UserWarning" not in err

    def test_header_only_sidecar_for_summarize(self, tmp_path, capsys):
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        cfg = write_ini(tmp_path / "f.ini", FIT.format(data=data, out=out))
        assert main(["fit", cfg]) == 0
        (out / "chain.bin.csv").write_text("step,log_post,accepted\n")
        scfg = write_ini(tmp_path / "s.ini", (
            f"[data]\nchain_file = {out / 'chain.bin'}\n"
            f"[output]\ndir = {tmp_path / 'sum'}\n"))
        code, err, caught = self.run_quietly(["summarize", scfg], capsys)
        assert code == EXIT_DATA and caught == []
        assert "chain.bin.csv holds no data row" in err
        assert "UserWarning" not in err
        assert not (tmp_path / "sum" / "summary.json").exists()

    def test_one_empty_parameter_file_for_divergence(self, tmp_path,
                                                     capsys):
        """An empty theta file next to a non-empty zeta file is reported
        as empty, not as a shape mismatch."""
        th, ze = tmp_path / "th.csv", tmp_path / "ze.csv"
        th.write_text("")
        np.savetxt(ze, [[0.3, 0.1]], delimiter=",")
        cfg = write_ini(tmp_path / "d.ini", (
            "[family]\nfamily = gaussian\n"
            f"[divergence]\ntheta_file = {th}\nzeta_file = {ze}\n"
            f"[output]\ndir = {tmp_path / 'div'}\n"))
        code, err, caught = self.run_quietly(["divergence", cfg], capsys)
        assert code == EXIT_DATA and caught == []
        assert "th.csv holds no data row" in err
        assert "UserWarning" not in err and "differ" not in err


class TestFileBoundary:
    def test_only_cli_reads_and_writes_files(self):
        """Every file format lives in cli.py: no other module of the package
        calls open or np.loadtxt, or imports struct or configparser."""
        src = os.path.dirname(os.path.abspath(cli.__file__))
        found = []
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py") or name == "cli.py":
                continue
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = getattr(func, "id", getattr(func, "attr", None))
                    if called in ("open", "loadtxt"):
                        found.append(f"{name}:{node.lineno} calls {called}")
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [getattr(node, "module", None)] + [
                        alias.name for alias in node.names]
                    for module in ("struct", "configparser"):
                        if module in modules:
                            found.append(f"{name}:{node.lineno} imports "
                                         f"{module}")
        assert found == []

    def test_only_main_decides_exit_codes_and_writes_the_manifest(self):
        """In cli.py only main returns an EXIT_* constant or calls
        write_manifest; the commands raise and return their seed."""
        with open(cli.__file__) as fh:
            tree = ast.parse(fh.read())
        sites = []
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                value = getattr(node, "value", None)
                if isinstance(node, ast.Return) and isinstance(
                        value, ast.Name) and value.id.startswith("EXIT_"):
                    sites.append((func.name, value.id))
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", None) == "write_manifest":
                    sites.append((func.name, "write_manifest"))
        assert {name for name, _ in sites} == {"main"}
        assert len(sites) == 5


class TestManifest:
    def test_contains_hash_and_seed(self, tmp_path):
        data = run_generate(tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["seed"] == 5
        cfg = read_config(str(tmp_path / "gen.ini"))
        expected = hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
        assert manifest["config_hash"] == expected
        assert manifest["command"] == "generate"
