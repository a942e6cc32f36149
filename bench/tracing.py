"""Spans around calls into frrr's modules, recorded from the benchmark only.

A ``Tracer`` used as a context manager replaces each name in ``TARGETS`` in
the namespace that calls it (``frrr.posterior.log_prior`` is the prior as
the sampler sees it) by a wrapper that records a span: name, start, end,
parent and, for the matrix products, the flops the call implies.  Nothing
under ``src/`` changes; leaving the context restores the originals.  A name
missing from frrr is reported in ``absent`` and is not traced.

Spans stay in memory; each traced round is reduced to counts and times when
it ends, and the spans of the last round are written out by ``write``.
"""

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (namespace module, attribute): the call sites that are wrapped.
TARGETS = (
    ("cli", "run_sampler"), ("cli", "load_dataset"), ("cli", "save_chain"),
    ("posterior", "log_likelihood"), ("posterior", "grad_log_likelihood"),
    ("posterior", "log_prior"), ("posterior", "grad_log_prior"),
    ("posterior", "theta_from_eta"), ("posterior", "b_value"),
    ("posterior", "b_prime"), ("posterior", "dtheta_deta"),
    ("posterior", "linear_predictor"),
    ("experiments", "run_sampler"), ("experiments", "likelihood_ridge_fit"),
    ("experiments", "grad_log_likelihood"),
    ("experiments", "generate_dataset"),
    ("experiments", "posterior_average_divergence"),
    ("experiments", "renyi_per_entry"),
)

# Wrapped name -> the name its metrics are reported under.  A span's time is
# charged to the layer of the module that defines the function, whatever
# the name: cli.save_chain and experiments.grad_log_likelihood are posterior.
REPORTED = {
    "cli.run_sampler": "posterior.run_sampler",
    "experiments.run_sampler": "posterior.run_sampler",
    "cli.load_dataset": "simulate.load_dataset",
    "posterior.log_prior": "prior.log_prior",
    "posterior.grad_log_prior": "prior.grad_log_prior",
    "posterior.theta_from_eta": "families.theta_from_eta",
    "posterior.b_value": "families.b_value",
    "posterior.b_prime": "families.b_prime",
    "posterior.dtheta_deta": "families.dtheta_deta",
    "posterior.linear_predictor": "families.linear_predictor",
    "experiments.generate_dataset": "simulate.generate_dataset",
    "experiments.renyi_per_entry": "divergence.renyi_per_entry",
}
LAYERS = ("cli", "posterior", "prior", "families", "simulate", "experiments",
          "divergence")
SAMPLER = "posterior.run_sampler"
# The four pieces of the target that one MALA step evaluates.
TARGET_PIECES = ("posterior.log_likelihood", "posterior.grad_log_likelihood",
                 "prior.log_prior", "prior.grad_log_prior")


# Flops of the n x p by p x q products a call implies: X @ B in the linear
# predictor, X^T S in the likelihood gradient (2npq each).
def _predictor_flops(X, B):
    return 2 * X.shape[0] * X.shape[1] * B.shape[1]


def _gradient_flops(data, B):
    return 2 * data.X.shape[0] * data.X.shape[1] * B.shape[1]


FLOPS = {"families.linear_predictor": _predictor_flops,
         "posterior.grad_log_likelihood": _gradient_flops}

# Per-layer metrics in the order they are printed, with units.
COUNTS = ("posterior.log_likelihood", "posterior.grad_log_likelihood",
          "prior.log_prior", "prior.grad_log_prior")
US_PER_CALL = COUNTS + ("families.theta_from_eta", "families.dtheta_deta",
                        "families.b_value", "families.b_prime",
                        "divergence.renyi_per_entry")
SECONDS = ("simulate.load_dataset", "simulate.generate_dataset",
           "experiments.likelihood_ridge_fit",
           "experiments.posterior_average_divergence", "cli.save_chain")


class Tracer:
    def __init__(self):
        self.absent = []
        self.rounds = []        # one reduced summary per traced round
        self.last_spans = []
        self._spans = []        # [name, start, end, parent, flops, layer]
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def __enter__(self):
        self._spans, self._stack, self.absent = [], [], []
        for ns, attr in TARGETS:
            name = f"{ns}.{attr}"
            try:
                module = importlib.import_module("frrr." + ns)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            layer = (getattr(fn, "__module__", None) or name).split(".")[-1]
            setattr(module, attr,
                    self._wrap(REPORTED.get(name, name), layer, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []
        self.rounds.append(reduce_spans(self._spans))
        self.last_spans = self._spans
        return False

    def _wrap(self, name, layer, fn):
        flops_of = FLOPS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            flops = 0
            if flops_of is not None:
                try:
                    flops = flops_of(*args, **kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass
            span = self._open(name, flops, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _open(self, name, flops, layer):
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                flops, layer]
        stack.append(len(self._spans))
        self._spans.append(span)
        return span

    def _close(self, span):
        self._stack.pop()
        span[2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        """A span around code of the benchmark's own, such as a CLI call;
        its layer is the first part of ``name``."""
        span = self._open(name, 0, name.split(".")[0])
        try:
            yield
        finally:
            self._close(span)

    # -- reporting ---------------------------------------------------------

    def metrics(self, rounds, steps_per_s, chains_per_s):
        """Per-layer metrics over the traced rounds.

        ``rounds`` are the benchmark's records of the traced rounds;
        ``steps_per_s``/``chains_per_s`` are (traced, untraced) pairs.
        Counts come from the first traced round (rounds repeat the same
        work exactly); times are means over all traced rounds.
        """
        first, k = self.rounds[0], len(self.rounds)

        def total(name, field):
            return sum(r["by_name"].get(name, {}).get(field, 0.0)
                       for r in self.rounds)

        def calls(name):
            return first["by_name"].get(name, {}).get("calls", 0)

        steps = rounds[0]["steps"]
        out = {
            "posterior.run_sampler.self_s":
                (total(SAMPLER, "self_s") / k, "s"),
        }
        for name in COUNTS:
            out[name + ".calls"] = (calls(name), "count")
        for name in US_PER_CALL:
            n = total(name, "calls")
            out[name + ".us_per_call"] = (
                1e6 * total(name, "s") / n if n else 0.0, "us")
        out["posterior.target_evals_per_step"] = (
            first["sampler_target_calls"] / steps, "count")
        out["posterior.matmul_flops_per_step"] = (
            first["sampler_flops"] / steps, "count")
        out["posterior.mala.acceptance"] = (rounds[0]["acceptance"], "ratio")
        for name in SECONDS:
            out[name + ".s"] = (total(name, "s") / k, "s")
        out["experiments.likelihood_ridge_fit.grad_evals"] = (
            calls("experiments.grad_log_likelihood"), "count")
        out["cli.output_bytes"] = (rounds[0]["output_bytes"], "bytes")
        for layer in LAYERS:
            out[layer + ".self_s"] = (
                sum(r["layer_self_s"].get(layer, 0.0) for r in self.rounds)
                / k, "s")
        out["trace.steps_per_s"] = (steps_per_s[0], "1/s")
        out["trace.untraced_steps_per_s"] = (steps_per_s[1], "1/s")
        out["trace.chains_per_s"] = (chains_per_s[0], "1/s")
        out["trace.untraced_chains_per_s"] = (chains_per_s[1], "1/s")
        out["trace.overhead"] = (steps_per_s[1] / steps_per_s[0], "ratio")
        out["trace.spans"] = (first["spans"], "count")
        out["trace.absent_names"] = (len(self.absent), "count")
        return out

    def write(self, path):
        """Write the last traced round's spans: times in µs from its start."""
        spans = self.last_spans
        t0 = spans[0][1] if spans else 0.0
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "absent": self.absent,
                "names": names,
                "fields": ["name", "start_us", "end_us", "parent"],
                "spans": [[index[s[0]], round(1e6 * (s[1] - t0), 3),
                           round(1e6 * (s[2] - t0), 3), s[3]] for s in spans],
            }, fh, separators=(",", ":"))


def reduce_spans(spans):
    """Calls, inclusive and self seconds per name, layer self times and the
    sampler's target calls and flops for one round of spans."""
    child = [0.0] * len(spans)
    in_sampler = [False] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_sampler[i] = in_sampler[parent]
        in_sampler[i] = in_sampler[i] or name == SAMPLER
    by_name, layer_self = {}, {}
    target_calls = flops = 0
    for i, (name, start, end, parent, fl, layer) in enumerate(spans):
        self_s = end - start - child[i]
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        if in_sampler[i]:
            target_calls += name in TARGET_PIECES
            flops += fl
    return {"by_name": by_name, "layer_self_s": layer_self,
            "sampler_target_calls": target_calls, "sampler_flops": flops,
            "spans": len(spans)}
