"""Each output check passes on good output and fails on a corrupted copy.

    python3 -m pytest bench/test_checks.py
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
from frrr import cli  # noqa: E402

ALPHA = 0.5


def write_ini(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture(scope="module", params=["gaussian", "bernoulli_probit"])
def fit_run(request, tmp_path_factory):
    """A small real `frrr fit` run: (family, data dir, output dir)."""
    family = request.param
    tmp = tmp_path_factory.mktemp(family)
    data, out = tmp / "data", tmp / "out"
    gen = write_ini(tmp / "gen.ini", f"""[family]\nfamily = {family}
[truth]\np = 4\nq = 3\nr = 1\n[design]\nn = 80\n[output]\ndir = {data}
[run]\nseed = 3\n""")
    fit = write_ini(tmp / "fit.ini", f"""[data]\ndataset_dir = {data}
[sampler]\nalpha = {ALPHA}\nn_steps = 1200\nburn_in = 600\nthin = 5
[output]\ndir = {out}\n[run]\nseed = 4\n""")
    assert cli.main(["generate", gen]) == 0
    assert cli.main(["fit", fit]) == 0
    return family, str(data), str(out)


@pytest.fixture
def fit_copy(fit_run, tmp_path):
    family, data, out = fit_run
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    return family, data, copy


def fit_problems(fit):
    family, data, out = fit
    return checks.check_fit(out, data, family, ALPHA)[0]


def rewrite_log_post(out, fn):
    path = os.path.join(out, "chain.bin.csv")
    side = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    side[:, 1] = fn(side[:, 1])
    with open(path, "w") as fh:
        fh.write("step,log_post,accepted\n")
        for step, lp, acc in side:
            fh.write("%d,%.17g,%d\n" % (step, lp, acc))


def test_fit_outputs_pass(fit_copy):
    family, data, out = fit_copy
    problems, _, failed = checks.check_fit(out, data, family, ALPHA)
    assert problems == [] and failed == 0


def test_perturbed_log_post_fails(fit_copy):
    family, data, out = fit_copy
    rewrite_log_post(out, lambda lp: lp + 1e-6 * np.abs(lp) * (
        np.arange(len(lp)) == len(lp) // 2))
    problems, _, failed = checks.check_fit(out, data, family, ALPHA)
    assert any("log_post" in p for p in problems)
    assert failed == 1


def test_other_family_formula_fails(fit_copy):
    family, data, out = fit_copy
    other = "gaussian" if family != "gaussian" else "bernoulli_probit"
    assert any("log_post" in p
               for p in checks.check_fit(out, data, other, ALPHA)[0])


def test_shifted_bhat_fails(fit_copy):
    path = os.path.join(fit_copy[2], "bhat.csv")
    bhat = np.loadtxt(path, delimiter=",", ndmin=2)
    bhat[0, 0] += 1e-6 * np.max(np.abs(bhat))
    np.savetxt(path, bhat, delimiter=",", fmt="%.17g")
    assert any("bhat" in p for p in fit_problems(fit_copy))


@pytest.mark.parametrize("rate", [0.05, 0.95])
def test_acceptance_out_of_range_fails(fit_copy, rate):
    path = os.path.join(fit_copy[2], "fit_summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["acceptance_rate"] = rate
    with open(path, "w") as fh:
        json.dump(summary, fh)
    assert any("acceptance" in p for p in fit_problems(fit_copy))


def test_identical_samples_fail(fit_copy):
    family, data, out = fit_copy
    path = os.path.join(out, "chain.bin")
    samples = checks.read_chain(path)
    with open(path, "rb") as fh:
        header = fh.read(36)
    frozen = np.repeat(samples[:1], len(samples), axis=0)
    with open(path, "wb") as fh:
        fh.write(header + frozen.astype("<f8").tobytes())
    rewrite_log_post(out, lambda lp: np.full_like(lp, lp[0]))
    with open(os.path.join(out, "bhat.csv"), "w") as fh:
        for row in samples[0]:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    problems = fit_problems(fit_copy)
    assert any("identical" in p for p in problems)
    assert not any("log_post" in p or "bhat" in p for p in problems)


# ---------------------------------------------------------------------------
# rate study: synthetic outputs in the CLI's format with a 1/n law

N_GRID = (100, 400, 1600)
REPS = 3


def write_study(out, pred_err, bound, acceptance, slope=None, ns=N_GRID):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "rate_cells.csv"), "w") as fh:
        fh.write("n,r,rep,pred_err,pred_err_post,est_err,d_alpha,"
                 "prop1_bound,acceptance\n")
        for i, n in enumerate(ns):
            for rep in range(REPS):
                fh.write("%d,2,%d,%.17g,0.1,0.1,0.1,%.17g,%.17g\n" % (
                    n, rep, pred_err[i][rep], bound[i], acceptance[i][rep]))
    if slope is None:
        means = [np.mean(pred_err[i]) for i in range(len(ns))]
        slope = checks.loglog_slope(ns, means)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump({"slope": slope}, fh)


def good_study():
    noise = np.array([[1.0, 1.1, 0.9], [1.05, 0.95, 1.0], [0.9, 1.0, 1.1]])
    pred = [list(2.0 / n * noise[i]) for i, n in enumerate(N_GRID)]
    bound = [20.0 / n for n in N_GRID]
    acc = [[0.5] * REPS for _ in N_GRID]
    return pred, bound, acc


def study_check(out, **changes):
    pred, bound, acc = good_study()
    kwargs = dict(pred_err=pred, bound=bound, acceptance=acc)
    kwargs.update(changes)
    write_study(str(out), **kwargs)
    return checks.check_rate_study(str(out), N_GRID, REPS)


def study_problems(out, **changes):
    return study_check(out, **changes)[0]


def test_rate_study_outputs_pass(tmp_path):
    problems, _, failed = study_check(tmp_path)
    assert problems == [] and failed == 0


def test_swapped_n_order_fails(tmp_path):
    problems, _, failed = study_check(tmp_path, ns=(1600, 400, 100))
    assert any("does not fall" in p for p in problems)
    assert any("slope" in p for p in problems)
    assert failed == len(N_GRID) * REPS


def test_shallow_slope_fails(tmp_path):
    pred = [[1.0 / np.sqrt(n)] * REPS for n in N_GRID]
    problems = study_problems(tmp_path, pred_err=pred)
    assert any("log-log slope" in p for p in problems)
    assert not any("does not fall" in p for p in problems)


def test_bound_violation_fails(tmp_path):
    pred, bound, _ = good_study()
    bound[1] = 0.5 * np.mean(pred[1])
    assert any("prop1_bound" in p
               for p in study_problems(tmp_path, bound=bound))


def test_chain_acceptance_out_of_range_fails(tmp_path):
    _, _, acc = good_study()
    acc[2][1] = 0.95
    problems, _, failed = study_check(tmp_path, acceptance=acc)
    assert any("acceptance" in p for p in problems)
    assert failed == 1


def test_summary_slope_mismatch_fails(tmp_path):
    assert any("summary slope" in p
               for p in study_problems(tmp_path, slope=-0.5))


def test_missing_replicate_fails(tmp_path):
    pred, bound, acc = good_study()
    write_study(str(tmp_path), pred, bound, acc)
    path = os.path.join(str(tmp_path), "rate_cells.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    assert checks.check_rate_study(str(tmp_path), N_GRID, REPS)[0]
