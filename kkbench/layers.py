"""Per-layer instrumentation of kkstab for the traced benchmark run.

`install` replaces module-level functions and methods of kkstab with
wrappers that record a span (see spans.py) around each call, and counters
of work done, from outside the package: nothing under src/ is edited.  A
name that a later version of kkstab no longer has is left alone, and the
metrics of that layer then read 0.  `layer_metrics` turns the spans and
counters of one traced round into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from kkstab import energy, evolve, fields, internal, schwarzschild
from workloads import CLI_RUNS

MIB = float(1 << 20)


def _wrap(tracer, owner, attr, span, count=None):
    """Trace owner.attr as `span`; count(counters, *args) runs before it."""
    fn = getattr(owner, attr, None)
    if fn is None:
        return

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if count is not None:
            count(tracer.counters, *args, **kwargs)
        return tracer.call(span, fn, *args, **kwargs)

    setattr(owner, attr, traced)


def _captured_nodes(sampler) -> int:
    return sum(int(np.count_nonzero(e["done"]))
               for e in getattr(sampler, "entries", ()))


def _wrap_sweep(tracer):
    """evolve._run_sweep: its right-hand side and monitor callbacks get
    their own spans, so the sweep's self time is the RK4 update alone."""
    run_sweep = getattr(evolve, "_run_sweep", None)
    if run_sweep is None:
        return
    sig = inspect.signature(run_sweep)

    def child(span, fn):
        return lambda *a, **k: tracer.call(span, fn, *a, **k)

    @functools.wraps(run_sweep)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        arg = bound.arguments
        if arg.get("accel") is not None:
            arg["accel"] = child("evolve.rhs", arg["accel"])
        if arg.get("on_monitor") is not None:
            arg["on_monitor"] = child("evolve.on_monitor", arg["on_monitor"])
        steps = int(arg.get("n_steps", 0))
        tracer.counters["evolve.sweep.steps"] += steps
        tracer.counters["evolve.sweep.node_steps"] += steps * np.size(arg.get("u"))
        return tracer.call("evolve.sweep", run_sweep, *bound.args,
                           **bound.kwargs)

    evolve._run_sweep = traced


def _wrap_observe(tracer):
    """SliceSampler.observe, counting calls that capture new nodes."""
    cls = getattr(evolve, "SliceSampler", None)
    observe = getattr(cls, "observe", None)
    if observe is None:
        return

    @functools.wraps(observe)
    def traced(self, *args, **kwargs):
        before = _captured_nodes(self)
        out = tracer.call("evolve.SliceSampler.observe", observe, self,
                          *args, **kwargs)
        new = _captured_nodes(self) - before
        tracer.counters["evolve.captured_nodes"] += new
        tracer.counters["evolve.capturing_observes"] += new > 0
        return out

    cls.observe = traced


def _wrap_stencil(tracer):
    """evolve._stencil_sample: counted per node column, not spanned (it is
    called tens of times per observe and a span each would dominate)."""
    stencil = getattr(evolve, "_stencil_sample", None)
    if stencil is None:
        return

    @functools.wraps(stencil)
    def counted(row, cols, *args, **kwargs):
        tracer.counters["evolve.stencil_samples"] += len(cols)
        return stencil(row, cols, *args, **kwargs)

    evolve._stencil_sample = counted


def _wrap_word_terms(tracer):
    """energy._word_terms is memoised: trace the expansion under a fresh
    cache, so calls count expansions and not cache hits."""
    cached = getattr(energy, "_word_terms", None)
    if cached is None:
        return
    expand = getattr(cached, "__wrapped__", cached)

    def traced(word):
        return tracer.call("energy.word_expansion", expand, word)

    energy._word_terms = (functools.lru_cache(maxsize=None)(traced)
                          if expand is not cached else traced)


def _wrap_christoffels(tracer):
    cls = getattr(schwarzschild, "MetricAtPoint", None)
    prop = vars(cls).get("christoffels") if cls is not None else None
    if not isinstance(prop, property):
        return
    fget = prop.fget
    cls.christoffels = property(
        lambda self: tracer.call("schwarzschild.christoffels", fget, self),
        doc=prop.__doc__)


def _count_bytes(key, *arrays_of):
    def count(counters, *args, **kwargs):
        counters[key] += sum(np.asarray(get(args)).nbytes for get in arrays_of)
    return count


def install(tracer) -> None:
    """Trace every layer the per-layer metrics name."""
    # one read of u and one write of the result per call
    _wrap(tracer, evolve, "radial_laplacian", "evolve.radial_laplacian",
          _count_bytes("evolve.radial_laplacian.bytes",
                       lambda a: a[0], lambda a: a[0]))
    _wrap_sweep(tracer)
    _wrap_observe(tracer)
    _wrap_stencil(tracer)
    _wrap(tracer, evolve, "quasilinear_coefficients",
          "evolve.quasilinear_coefficients")
    for name in ("flat_slice_energy", "_support_radius"):
        _wrap(tracer, evolve, name, "evolve.monitor")
    for name in ("evolve_kg_radial", "evolve_quasilinear_toy"):
        _wrap(tracer, evolve, name, "evolve.solver")

    _wrap(tracer, fields, "write_snapshot", "fields.write_snapshot",
          _count_bytes("fields.write_snapshot.bytes",
                       lambda a: a[1].u, lambda a: a[1].v))

    _wrap_word_terms(tracer)
    for name in ("estimate_suite", "hyperboloidal_energy",
                 "energy_identity_residual", "quasilinear_gamma",
                 "decay_fit"):
        _wrap(tracer, energy, name, "energy." + name)

    _wrap(tracer, schwarzschild.HarmonicChart, "__init__",
          "schwarzschild.chart_build")
    _wrap(tracer, schwarzschild, "harmonic_metric",
          "schwarzschild.harmonic_metric")
    _wrap_christoffels(tracer)
    _wrap(tracer, schwarzschild, "integrate_geodesic",
          "schwarzschild.integrate_geodesic")
    _wrap(tracer, schwarzschild.GeodesicTrajectory, "velocity_norm",
          "schwarzschild.velocity_norm")

    _wrap(tracer, internal, "lichnerowicz_spectrum",
          "internal.lichnerowicz_spectrum")


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    summary = tracer.summary()
    counters = tracer.counters

    def calls(span):
        return float(summary.get(span, {}).get("calls", 0))

    def own(*spans):
        return sum(summary.get(s, {}).get("self_s", 0.0) for s in spans)

    def total(span):
        return summary.get(span, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    observe = "evolve.SliceSampler.observe"
    out = {
        "evolve.radial_laplacian.calls": (calls("evolve.radial_laplacian"), "count"),
        "evolve.radial_laplacian.self_s": (own("evolve.radial_laplacian"), "s"),
        "evolve.radial_laplacian.bytes_mb": (
            counters["evolve.radial_laplacian.bytes"] / MIB, "MiB_computed"),
        "evolve.rhs.calls": (calls("evolve.rhs"), "count"),
        "evolve.rhs.self_s": (own("evolve.rhs"), "s"),
        "evolve.sweep.steps": (float(counters["evolve.sweep.steps"]), "count"),
        "evolve.sweep.self_s": (own("evolve.sweep"), "s"),
        "evolve.node_steps_per_s": (
            ratio(counters["evolve.sweep.node_steps"], total("evolve.sweep")),
            "1/s"),
        "evolve.quasilinear_coefficients.calls": (
            calls("evolve.quasilinear_coefficients"), "count"),
        "evolve.quasilinear_coefficients.self_s": (
            own("evolve.quasilinear_coefficients"), "s"),
        observe + ".calls": (calls(observe), "count"),
        observe + ".self_s": (own(observe), "s"),
        observe + ".capture_ratio": (
            ratio(counters["evolve.capturing_observes"], calls(observe)),
            "ratio"),
        "evolve.SliceSampler.captured_nodes": (
            float(counters["evolve.captured_nodes"]), "count"),
        "evolve.stencil_samples_per_node": (
            ratio(counters["evolve.stencil_samples"],
                  counters["evolve.captured_nodes"]), "ratio"),
        "evolve.monitor.self_s": (own("evolve.monitor"), "s"),
        "evolve.history.self_s": (own("evolve.solver", "evolve.on_monitor"), "s"),
        "fields.write_snapshot.self_s": (own("fields.write_snapshot"), "s"),
        "fields.write_snapshot.bytes_mb": (
            counters["fields.write_snapshot.bytes"] / MIB, "MiB_computed"),
        "energy.word_expansion.calls": (calls("energy.word_expansion"), "count"),
        "energy.word_expansion.self_s": (own("energy.word_expansion"), "s"),
        "energy.estimate_suite.self_s": (own("energy.estimate_suite"), "s"),
        "energy.hyperboloidal_energy.calls": (
            calls("energy.hyperboloidal_energy"), "count"),
        "energy.hyperboloidal_energy.self_s": (
            own("energy.hyperboloidal_energy"), "s"),
        "energy.energy_identity_residual.self_s": (
            own("energy.energy_identity_residual"), "s"),
        "energy.quasilinear_gamma.self_s": (own("energy.quasilinear_gamma"), "s"),
        "energy.decay_fit.self_s": (own("energy.decay_fit"), "s"),
        "schwarzschild.chart_build.calls": (
            calls("schwarzschild.chart_build"), "count"),
        "schwarzschild.chart_build.self_s": (own("schwarzschild.chart_build"), "s"),
        "schwarzschild.harmonic_metric.calls": (
            calls("schwarzschild.harmonic_metric"), "count"),
        "schwarzschild.harmonic_metric.self_s": (
            own("schwarzschild.harmonic_metric"), "s"),
        "schwarzschild.christoffels.calls": (
            calls("schwarzschild.christoffels"), "count"),
        "schwarzschild.christoffels.self_s": (
            own("schwarzschild.christoffels"), "s"),
        "schwarzschild.integrate_geodesic.self_s": (
            own("schwarzschild.integrate_geodesic"), "s"),
        "schwarzschild.velocity_norm.self_s": (
            own("schwarzschild.velocity_norm"), "s"),
        "internal.lichnerowicz_spectrum.self_s": (
            own("internal.lichnerowicz_spectrum"), "s"),
    }
    for sub, _ in CLI_RUNS:
        out[f"cli.{sub}.s"] = (total("cli." + sub), "s")
    out["cli.bytes_written_mb"] = (counters["cli.bytes_written"] / MIB, "MiB")
    out["trace.spans"] = (float(len(tracer.names)), "count")
    return out
