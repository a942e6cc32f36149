"""Throughput benchmark of the frrr CLI: `frrr fit` and `frrr rate-study`.

    python3 bench/run.py --workload fit-gaussian --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One process runs
one workload: it writes the configs, runs ``frrr generate`` (fit workloads),
then repeats identical rounds of ``frrr fit`` / ``frrr rate-study`` through
``frrr.cli.main`` while one more round fits in ``--seconds``.  Every round's
outputs are checked by ``bench/checks.py``; every timed call is scaled to the
machine's quiet speed by ``SpeedProbe``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``bench/tracing.py`` with ``--trace 1``).
"""

import os
import sys

# Single-threaded BLAS and no frrr worker threads, in this process only.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FRRR_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

P, Q, RANK, ALPHA = 8, 6, 2, 0.5

# Run lengths: a round takes one to ten seconds, and the acceptance of every
# chain settles inside (0.1, 0.9) for any seed.  Ten replications keep the
# rate-study slope check from failing by chance (see README.md).  ``probe``
# names the SpeedProbe work whose speed follows the workload's most closely.
WORKLOADS = {
    # one long chain at small n: per-call Python overhead and the prior show
    "fit-gaussian": dict(kind="fit", family="gaussian", n=400,
                         n_steps=5000, burn_in=1000, thin=10, probe="calls"),
    # the non-canonical probit link: the families layer dominates
    "fit-probit": dict(kind="fit", family="bernoulli_probit", n=1600,
                       n_steps=1000, burn_in=500, thin=5, probe="mixed"),
    # many short ridge-initialised chains, replicates sharing X per cell
    "rate-study": dict(kind="study", family="gaussian",
                       n_grid=(100, 400, 1600), replications=10,
                       n_steps=1500, burn_in=700, thin=5, probe="mixed"),
}
SETUP_REPEATS = 3


class SpeedProbe:
    """Follows the speed of the core the process runs on.

    On a shared host a core's speed drifts by tens of per cent within a
    second and from minute to minute.  Inside a ``with`` block a fixed
    sample of work runs every INTERVAL_S seconds on SIGALRM in the middle of
    whatever the main thread is doing.  ``spent`` is the time the samples
    took, which the caller subtracts; ``factor()`` is their median time over
    the work's NOMINAL_S, its time on the quiet machine: 1 at the quiet
    speed, 1.5 when the core runs a third slower.

    Two works, because code made of many tiny NumPy calls slows more than
    code that spends longer in each call when the host is busy: "calls" is
    the value and gradient of a small gaussian target, six times over;
    "mixed" is a pure-Python loop plus a few small NumPy calls.  The
    nominal time of "calls" is set so that fit-gaussian reads about the
    same with either work.
    """

    NOMINAL_S = {"mixed": 4.5e-4, "calls": 4.6e-4}
    INTERVAL_S = 0.05

    def __init__(self, work="mixed"):
        import numpy as np

        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((400, P)), rng.standard_normal((400, Q))
        B, eye_p, eye_q = rng.standard_normal((P, Q)), np.eye(P), np.eye(Q)

        def mixed():
            x = 0
            for i in range(3000):
                x += i * i
            for _ in range(3):
                eta = X @ B
                float(np.sum(np.log1p(np.exp(eta))))
                np.linalg.cholesky(B.T @ B + eye_q)

        def calls():
            for _ in range(6):
                eta = X @ B
                float(np.sum(Y * eta - eta ** 2 / 2.0))
                X.T @ (Y - eta)
                np.linalg.slogdet(B @ B.T + eye_p)
                np.linalg.cholesky(B.T @ B + eye_q)

        self._work = {"mixed": mixed, "calls": calls}[work]
        self.nominal_s = self.NOMINAL_S[work]
        self.samples, self.spent = [], 0.0

    def sample(self):
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    def factor(self):
        return statistics.median(self.samples) / self.nominal_s

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0


def timed(fn, *args, probe_work="mixed"):
    """(fn(*args), wall seconds scaled to the quiet speed, speed factor)."""
    with SpeedProbe(probe_work) as probe:
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0 - probe.spent
    speed = probe.factor()
    return out, wall / speed, speed


def import_seconds():
    """Seconds a fresh interpreter takes to import frrr.cli from src/, at
    the quiet speed.  NumPy, which the probe needs, is imported first."""
    code = ("import run, importlib; "
            "print(run.timed(importlib.import_module, 'frrr.cli')[1])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [BENCH_DIR, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"importing frrr failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def import_frrr():
    """Import frrr from this checkout's src/ and fail if it is not there."""
    import frrr.cli

    src = os.path.join(ROOT, "src", "frrr")
    if os.path.dirname(os.path.abspath(frrr.cli.__file__)) != src:
        raise SystemExit(f"frrr was imported from {frrr.cli.__file__}, "
                         f"not {src}")
    return frrr.cli


def write_ini(path, sections):
    with open(path, "w") as fh:
        for name, items in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in items.items():
                fh.write(f"{key} = {value}\n")


def setup(cli, name, seed, work):
    """Everything before the first timed call: write the configs and, for a
    fit workload, run `frrr generate`.  Returns (CLI argv, output paths)."""
    wl = WORKLOADS[name]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_dir = os.path.join(work, "out")
    ini = os.path.join(work, name + ".ini")
    common = {"prior": {"tau_preset": "theorem1"},
              "output": {"dir": out_dir}, "run": {"seed": seed}}
    if wl["kind"] == "fit":
        data_dir = os.path.join(work, "data")
        gen_ini = os.path.join(work, "generate.ini")
        write_ini(gen_ini, {
            "family": {"family": wl["family"]},
            "truth": {"p": P, "q": Q, "r": RANK},
            "design": {"n": wl["n"]},
            "output": {"dir": data_dir},
            "run": {"seed": seed},
        })
        if cli.main(["generate", gen_ini]) != 0:
            raise SystemExit("frrr generate failed")
        write_ini(ini, {
            "data": {"dataset_dir": data_dir},
            "sampler": {"alpha": ALPHA, "n_steps": wl["n_steps"],
                        "burn_in": wl["burn_in"], "thin": wl["thin"]},
            **common,
        })
        return ["fit", ini], dict(data_dir=data_dir, out_dir=out_dir)
    write_ini(ini, {
        "family": {"family": wl["family"]},
        "truth": {"p": P, "q": Q, "r": RANK},
        "sampler": {"alpha": ALPHA},
        "study": {"n_grid": " ".join(map(str, wl["n_grid"])),
                  "replications": wl["replications"],
                  "n_steps": wl["n_steps"], "burn_in": wl["burn_in"],
                  "thin": wl["thin"]},
        **common,
    })
    return ["rate-study", ini], dict(out_dir=out_dir)


def run_round(cli, name, argv, ctx, tracer=None):
    """One timed CLI call, then the output checks; returns a round record."""
    import checks

    wl = WORKLOADS[name]
    shutil.rmtree(ctx["out_dir"], ignore_errors=True)
    if tracer is None:
        rc, wall, speed = timed(cli.main, argv, probe_work=wl["probe"])
    else:
        with tracer, tracer.span("cli." + argv[0]):
            rc, wall, speed = timed(cli.main, argv, probe_work=wl["probe"])
    chains = len(wl["n_grid"]) * wl["replications"] \
        if wl["kind"] == "study" else 1
    # A CLI error fails every operation of the round; otherwise the checks
    # say which operations their problems fall on.
    problems, acceptance, failed = [], float("nan"), chains
    if rc == 0:
        if wl["kind"] == "fit":
            problems, acceptance, failed = checks.check_fit(
                ctx["out_dir"], ctx["data_dir"], wl["family"], ALPHA)
        else:
            problems, acceptance, failed = checks.check_rate_study(
                ctx["out_dir"], wl["n_grid"], wl["replications"])
    return dict(rc=rc, wall=wall, speed=speed, chains=chains, failed=failed,
                steps=chains * wl["n_steps"], problems=problems,
                acceptance=acceptance, output_bytes=dir_bytes(ctx["out_dir"]))


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def rates(rounds):
    """Median steps/s and chains/s over the rounds that succeeded."""
    ok = [r for r in rounds if r["rc"] == 0]
    if not ok:
        return float("nan"), float("nan")
    return (statistics.median(r["steps"] / r["wall"] for r in ok),
            statistics.median(r["chains"] / r["wall"] for r in ok))


def machine_info():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name = args.workload

    # Set-up, done SETUP_REPEATS times and reported as the sum of medians:
    # the import of frrr.cli in a fresh interpreter, then the configs and
    # `frrr generate`.
    import_s = statistics.median(
        import_seconds() for _ in range(SETUP_REPEATS))
    cli = import_frrr()
    work = os.path.join(OUT_ROOT, "work", f"{name}-{args.seed}-{os.getpid()}")
    prep = [timed(setup, cli, name, args.seed, work)
            for _ in range(SETUP_REPEATS)]
    cli_argv, ctx = prep[0][0]
    setup_s = import_s + statistics.median(p[1] for p in prep)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    # Rounds run while the next one, as long as the last, ends within
    # --seconds.  With tracing they alternate untraced/traced, so that the
    # overhead is measured against a base taken in the same process.
    while True:
        start = time.perf_counter()
        if tracer is not None and len(plain) > len(traced):
            traced.append(run_round(cli, name, cli_argv, ctx, tracer))
        else:
            plain.append(run_round(cli, name, cli_argv, ctx))
        now = time.perf_counter()
        if now - t0 + (now - start) > args.seconds and \
                (tracer is None or traced):
            break
    shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for p in sorted(set(problems)):
        print("check failed:", p, file=sys.stderr)
    steps_per_s, chains_per_s = rates(plain)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "steps_per_s": (steps_per_s, "1/s"),
            "chains_per_s": (chains_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        traced_steps, traced_chains = rates(traced)
        metrics = tracer.metrics(traced, (traced_steps, steps_per_s),
                                 (traced_chains, chains_per_s))
        for absent in tracer.absent:
            print("absent from frrr, not traced:", absent, file=sys.stderr)
        tracer.write(os.path.join(OUT_ROOT, f"trace-{name}-{args.seed}.json"))
    result = {
        "correct": not problems,
        "attempted": sum(r["chains"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_info(),
                  rounds=[{k: r[k] for k in ("rc", "wall", "speed")}
                          for r in rounds])
    with open(os.path.join(OUT_ROOT, f"result-{name}-{args.seed}-"
                           f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
