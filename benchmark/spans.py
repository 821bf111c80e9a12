"""Spans around the program's public functions, installed from outside.

A Tracer wraps each traced function and rebinds the wrapper in every
`rqmc_median` module that bound the original: `from .scramble import
apply_scrambler` copies the reference, so `estimators.apply_scrambler` and
`acceptance.apply_scrambler` are wrapped separately from
`scramble.apply_scrambler`.  Each call records a span
[id, name, start, end, parent id, attrs].  Spans stay in memory until the
caller drains them between rounds.

Acceptance criteria are private functions, so their spans are cut from the
public `CriterionResult` each criterion builds when it ends: criterion k
spans from the previous mark (the start of `run_acceptance` or the previous
result) to its own result, and the spans recorded meanwhile are re-parented
under it.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter

SCRAMBLE_KINDS = ("nested", "jittered", "matousek", "tezuka", "striped")
PER_KIND_M = tuple((kind, m) for kind in ("nested", "matousek") for m in (4, 6, 10, 12))
CRITERIA = (3, 7, 8, 9)

# name, unit; every traced run reports all of them (0 where a workload does
# not reach the layer)
PER_LAYER = (
    [("nets.van_der_corput_net.s", "s"), ("nets.van_der_corput_net.calls", "count"),
     ("nets.is_net.s", "s"), ("nets.is_net.calls", "count")]
    + [(f"scramble.{k}.us_per_call", "us") for k in SCRAMBLE_KINDS]
    + [(f"scramble.{k}.m{m}.us_per_call", "us") for k, m in PER_KIND_M]
    + [("scramble.RandomStream.generator.s", "s"), ("scramble.points_per_s", "1/s"),
       ("integrands.eval.s", "s"), ("integrands.points", "count"),
       ("estimators.replicate_batch.self_s", "s"),
       ("estimators.median_estimator.us_per_call", "us"),
       ("estimators.q_estimate.self_s", "s"),
       ("stats.ks_statistic_normal.s", "s"), ("stats.histogram.s", "s"),
       ("stats.fit_slope.s", "s"), ("stats.median_variance.s", "s")]
    + [(f"acceptance.c{c}.s", "s") for c in CRITERIA]
    + [("cli.self_s", "s"), ("cli.bytes_written", "bytes"), ("digits.expand.calls", "count"),
       ("trace.spans", "count"), ("trace.overhead_s", "s")]
)


def _net_attrs(pts):
    return pts.base, pts.m, pts.n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._mark = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        sid = self._new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append([sid, name, t0, t1, parent, attrs])

    def _wrap(self, name, fn, attrs=None, on_enter=None):
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            a = attrs(*args, **kwargs) if attrs is not None else None
            return self.call(name, fn, *args, attrs=a, **kwargs)
        return wrapper

    def _criterion_mark(self, result_cls):
        def make(*args, **kwargs):
            res = result_cls(*args, **kwargs)
            now = perf_counter()
            sid, parent, mark = self._new_id(), self._stack[-1], self._mark
            for span in reversed(self.spans):  # ordered by end time
                if span[3] < mark:
                    break
                if span[4] == parent and span[2] >= mark:
                    span[4] = sid
            self.spans.append([sid, f"acceptance.c{res.index}", mark, now, parent, None])
            self._mark = now
            return res
        return make

    def _set_mark(self):
        self._mark = perf_counter()

    def _vdc(self, fn):
        """van_der_corput_net, with attrs (base, m, cold): cold is an lru_cache miss."""
        def wrapper(base, m):
            misses = fn.cache_info().misses
            attrs = [base, m, False]
            try:
                return self.call("nets.van_der_corput_net", fn, base, m, attrs=attrs)
            finally:
                attrs[2] = fn.cache_info().misses != misses
        return wrapper

    def _builtin(self, fn):
        specs = {}

        def wrapper(name):
            spec = fn(name)
            if name not in specs:
                ev = spec.eval
                specs[name] = dataclasses.replace(spec, eval=lambda x: self.call(
                    "integrands.eval", ev, x, attrs=len(x)))
            return specs[name]
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the traced functions in every loaded rqmc_median module."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "rqmc_median" or name.startswith("rqmc_median.")}
        nets, scramble = mods["rqmc_median.nets"], mods["rqmc_median.scramble"]
        est, stats = mods["rqmc_median.estimators"], mods["rqmc_median.stats"]
        acc, digits = mods["rqmc_median.acceptance"], mods["rqmc_median.digits"]
        integrands = mods["rqmc_median.integrands"]
        targets = [
            (nets.van_der_corput_net, self._vdc(nets.van_der_corput_net)),
            (nets.is_net, self._wrap("nets.is_net", nets.is_net)),
            (scramble.apply_scrambler, self._wrap("scramble.apply_scrambler",
                                                  scramble.apply_scrambler)),
            (scramble.scramble_nested, self._wrap(
                "scramble.scramble", scramble.scramble_nested,
                lambda pts, *a, **k: ("nested",) + _net_attrs(pts))),
            (scramble.scramble_jittered, self._wrap(
                "scramble.scramble", scramble.scramble_jittered,
                lambda pts, *a, **k: ("jittered",) + _net_attrs(pts))),
            (scramble.scramble_linear, self._wrap(
                "scramble.scramble", scramble.scramble_linear,
                lambda pts, spec, *a, **k: (spec.kind.value,) + _net_attrs(pts))),
            (integrands.builtin, self._builtin(integrands.builtin)),
            (est.replicate_batch, self._wrap("estimators.replicate_batch", est.replicate_batch)),
            (est.median_estimator, self._wrap("estimators.median_estimator",
                                              est.median_estimator)),
            (est.q_estimate, self._wrap("estimators.q_estimate", est.q_estimate)),
            (acc.run_acceptance, self._wrap("acceptance.run_acceptance", acc.run_acceptance,
                                            on_enter=self._set_mark)),
            (acc.CriterionResult, self._criterion_mark(acc.CriterionResult)),
            (digits.expand, self._wrap("digits.expand", digits.expand)),
        ]
        for fname in ("ks_statistic_normal", "histogram", "fit_slope", "median_variance",
                      "median_density_mass"):
            fn = getattr(stats, fname)
            targets.append((fn, self._wrap(f"stats.{fname}", fn)))
        originals = {id(orig): wrapped for orig, wrapped in targets}
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                wrapped = originals.get(id(val))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, val))
        gen = scramble.RandomStream.generator
        scramble.RandomStream.generator = self._wrap("scramble.RandomStream.generator", gen)
        self._patched.append((scramble.RandomStream, "generator", gen))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def drain(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class LayerTotals:
    """Sums over drained spans, turned into the per-layer metrics at the end."""

    def __init__(self):
        self.dur = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.scramble = defaultdict(lambda: [0, 0.0, 0])  # (kind, base, m) -> calls, s, points
        self.vdc_cold = [0, 0.0]
        self.eval_points = 0
        self.bytes_written = 0
        self.spans = 0

    def add(self, spans: list[list]):
        child = defaultdict(float)
        for sid, name, t0, t1, parent, attrs in spans:
            if parent is not None:
                child[parent] += t1 - t0
        for sid, name, t0, t1, parent, attrs in spans:
            d = t1 - t0
            self.dur[name] += d
            self.self_s[name] += d - child.get(sid, 0.0)
            self.calls[name] += 1
            if name == "scramble.scramble":
                kind, base, m, n = attrs
                acc = self.scramble[(kind, base, m)]
                acc[0] += 1
                acc[1] += d
                acc[2] += n
            elif name == "nets.van_der_corput_net" and attrs[2]:
                self.vdc_cold[0] += 1
                self.vdc_cold[1] += d
            elif name == "integrands.eval":
                self.eval_points += attrs
        self.spans += len(spans)

    def scramble_table(self) -> list[dict]:
        """Cost per scramble call for every (kind, base, m) seen."""
        return [{"kind": k, "base": b, "m": m, "calls": c, "us_per_call": 1e6 * s / c}
                for (k, b, m), (c, s, _) in sorted(self.scramble.items())]

    def metrics(self, rounds: int, setup: "LayerTotals", overhead_s: float) -> dict:
        """Per-layer metrics; sums are per traced round unless named per call."""

        def per_call_us(items):
            c = sum(v[0] for v in items)
            return 1e6 * sum(v[1] for v in items) / c if c else 0.0

        sc = self.scramble
        out = {
            # cold builds: set-up builds every net, so rounds add none today
            "nets.van_der_corput_net.s": setup.vdc_cold[1] + self.vdc_cold[1] / rounds,
            "nets.van_der_corput_net.calls": setup.vdc_cold[0] + self.vdc_cold[0] / rounds,
            "nets.is_net.s": self.dur["nets.is_net"] / rounds,
            "nets.is_net.calls": self.calls["nets.is_net"] / rounds,
        }
        for kind in SCRAMBLE_KINDS:
            out[f"scramble.{kind}.us_per_call"] = per_call_us(
                [v for key, v in sc.items() if key[0] == kind])
        for kind, m in PER_KIND_M:
            out[f"scramble.{kind}.m{m}.us_per_call"] = per_call_us(
                [v for key, v in sc.items() if key == (kind, 2, m)])
        sc_s = sum(v[1] for v in sc.values())
        out["scramble.RandomStream.generator.s"] = self.dur["scramble.RandomStream.generator"] / rounds
        out["scramble.points_per_s"] = sum(v[2] for v in sc.values()) / sc_s if sc_s else 0.0
        out["integrands.eval.s"] = self.dur["integrands.eval"] / rounds
        out["integrands.points"] = self.eval_points / rounds
        out["estimators.replicate_batch.self_s"] = self.self_s["estimators.replicate_batch"] / rounds
        n_med = self.calls["estimators.median_estimator"]
        out["estimators.median_estimator.us_per_call"] = (
            1e6 * self.dur["estimators.median_estimator"] / n_med if n_med else 0.0)
        out["estimators.q_estimate.self_s"] = self.self_s["estimators.q_estimate"] / rounds
        for fname in ("ks_statistic_normal", "histogram", "fit_slope"):
            out[f"stats.{fname}.s"] = self.dur[f"stats.{fname}"] / rounds
        out["stats.median_variance.s"] = (self.dur["stats.median_variance"]
                                          + self.dur["stats.median_density_mass"]) / rounds
        for c in CRITERIA:
            out[f"acceptance.c{c}.s"] = self.dur[f"acceptance.c{c}"] / rounds
        out["cli.self_s"] = self.self_s["cli.main"] / rounds
        out["cli.bytes_written"] = self.bytes_written / rounds
        out["digits.expand.calls"] = setup.calls["digits.expand"] + self.calls["digits.expand"] / rounds
        out["trace.spans"] = self.spans / rounds
        out["trace.overhead_s"] = overhead_s
        return out
