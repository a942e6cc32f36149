"""Reference figures quoted in bench/README.md; not gated by the benchmark.

    python3 bench/reference.py [--seed 1]

Prints, as markdown: the ESS per second of log_post and of ||B||_F for the
two fit workloads, the rate-study round with FRRR_THREADS unset and set to 2,
and the µs per call of the four target pieces and of one MALA step's target
evaluation for three families at three (n, p, q).  Times are plain wall
times, not scaled by the speed probe of run.py.
"""

import argparse
import os
import shutil
import sys
import time

import run  # first: pins BLAS threads and puts src/ on the path

import numpy as np  # noqa: E402

import checks  # noqa: E402


def ess(x):
    """Effective sample size by Geyer's initial monotone sequence."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    m = len(x)
    if m < 4 or not np.any(x):
        return float("nan")
    f = np.fft.rfft(x, 2 * m)
    acov = np.fft.irfft(f * np.conj(f))[:m] / m
    rho = acov / acov[0]
    pairs = rho[:m - m % 2].reshape(-1, 2).sum(axis=1)
    k = np.argmax(pairs <= 0) if np.any(pairs <= 0) else len(pairs)
    pairs = np.minimum.accumulate(pairs[:k])
    tau = -1.0 + 2.0 * np.sum(pairs)
    return m / max(tau, 1.0)


def timed_round(cli, name, seed, work):
    """Set up a workload and time one CLI call of it, unscaled."""
    argv, ctx = run.setup(cli, name, seed, work)
    t0 = time.perf_counter()
    if cli.main(argv) != 0:
        raise SystemExit(f"{name}: the CLI call failed")
    return time.perf_counter() - t0, ctx


def fit_ess(cli, name, seed, work):
    """One fit round of a workload: (wall s, ESS/s log_post, ESS/s ||B||_F)."""
    wall, ctx = timed_round(cli, name, seed, work)
    wl = run.WORKLOADS[name]
    problems, _ = checks.check_fit(ctx["out_dir"], ctx["data_dir"],
                                   wl["family"], run.ALPHA)
    if problems:
        raise SystemExit(f"{name}: {problems}")
    samples = checks.read_chain(os.path.join(ctx["out_dir"], "chain.bin"))
    log_post = np.loadtxt(os.path.join(ctx["out_dir"], "chain.bin.csv"),
                          delimiter=",", skiprows=1, ndmin=2)[:, 1]
    frob = np.linalg.norm(samples, axis=(1, 2))
    return wall, ess(log_post) / wall, ess(frob) / wall


def study_wall(cli, seed, work, threads):
    if threads is None:
        os.environ.pop("FRRR_THREADS", None)
    else:
        os.environ["FRRR_THREADS"] = str(threads)
    try:
        return timed_round(cli, "rate-study", seed, work)[0]
    finally:
        os.environ.pop("FRRR_THREADS", None)


def per_call_us(fn, repeats=5, min_time=0.2):
    """Min over repeats of the mean µs per call in a loop of >= min_time s."""
    n, best = 1, float("inf")
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_time / 10:
            break
        n *= 2
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (time.perf_counter() - t0) / n)
    return 1e6 * best


def call_grid(seed):
    from frrr import (FamilySpec, PriorConfig, calibrate_scale,
                      generate_dataset, grad_log_likelihood, grad_log_prior,
                      log_likelihood, log_prior, make_design,
                      make_low_rank_truth, tau_preset)
    from frrr.posterior import (grad_log_fractional_posterior,
                                log_fractional_posterior)

    rows = []
    for family in ("gaussian", "bernoulli_probit", "poisson_log"):
        for n, p, q in ((400, 8, 6), (1600, 8, 6), (400, 40, 30)):
            rng = np.random.default_rng(seed)
            spec = FamilySpec(family)
            X = make_design(n, p, "iid", rng)
            truth = calibrate_scale(X, make_low_rank_truth(p, q, 2, 1.0, rng))
            data = generate_dataset(X, truth, spec, rng)
            tau = tau_preset("theorem1", n, p, q, spec.a,
                             float(np.linalg.norm(X)))
            prior = PriorConfig(tau=tau, p=p, q=q)
            B = 0.5 * truth.b0
            rows.append((family, n, p, q, [
                per_call_us(lambda: log_likelihood(data, B)),
                per_call_us(lambda: grad_log_likelihood(data, B)),
                per_call_us(lambda: log_prior(B, prior)),
                per_call_us(lambda: grad_log_prior(B, prior)),
                per_call_us(lambda: (
                    log_fractional_posterior(data, B, prior, 0.5),
                    grad_log_fractional_posterior(data, B, prior, 0.5))),
            ]))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cli = run.import_frrr()
    work = os.path.join(run.OUT_ROOT, "work", f"reference-{os.getpid()}")

    print("machine:", run.machine_info())
    print("\n| workload | fit wall s | ESS/s log_post | ESS/s ‖B‖_F |")
    print("|---|---|---|---|")
    for name in ("fit-gaussian", "fit-probit"):
        wall, e_lp, e_b = fit_ess(cli, name, args.seed, work)
        print(f"| {name} | {wall:.2f} | {e_lp:.3g} | {e_b:.3g} |")

    single = study_wall(cli, args.seed, work, None)
    two = study_wall(cli, args.seed, work, 2)
    print(f"\nrate-study round: {single:.2f} s with FRRR_THREADS unset, "
          f"{two:.2f} s with FRRR_THREADS=2 ({two / single:.2f}x)")

    print("\n| family | n | p | q | log_likelihood | grad_log_likelihood "
          "| log_prior | grad_log_prior | value + gradient |")
    print("|---|---|---|---|---|---|---|---|---|")
    for family, n, p, q, us in call_grid(args.seed):
        cells = " | ".join(f"{u:.1f}" for u in us)
        print(f"| {family} | {n} | {p} | {q} | {cells} |")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
