import hashlib
import json
import os

import numpy as np
import pytest

from frrr import cli
from frrr.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, canonical_text,
                      family_from_config, main, read_config)


def write_ini(path, text):
    path.write_text(text)
    return str(path)


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
        spec = family_from_config(
            {"family": {"family": "negbin_log", "k": "2.5"}})
        assert spec.family == "negbin_log" and spec.k == 2.5


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

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_ini(tmp_path / "f.ini",
                        FIT.format(data=tmp_path / "nope", out=tmp_path / "f"))
        assert main(["fit", cfg]) == EXIT_DATA

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

    def test_missing_sidecar_is_data_error(self, tmp_path):
        data = run_generate(tmp_path)
        out = tmp_path / "fit"
        cfg = write_ini(tmp_path / "f.ini", FIT.format(data=data, out=out))
        assert main(["fit", cfg]) == 0
        (out / "chain.bin.csv").unlink()
        scfg = write_ini(tmp_path / "s.ini", (
            f"[data]\nchain_file = {out / 'chain.bin'}\n"
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

    def test_study_thin_is_read(self, tmp_path, monkeypatch):
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


class TestManifest:
    def test_contains_hash_and_seed(self, tmp_path):
        data = run_generate(tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["seed"] == 5
        cfg = read_config(str(tmp_path / "gen.ini"))
        expected = hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
        assert manifest["config_hash"] == expected
        assert manifest["command"] == "generate"
