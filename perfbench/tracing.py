"""In-memory spans around the public calls of each gossipgap layer.

The benchmark never edits the package: ``install_probes`` replaces the
public functions and methods of each layer with timing wrappers and
``Tracer.restore`` puts the originals back.  Calls made once per pipeline
stage become spans (name, start, end, parent); calls made once per step
(``next_matrix``, ``dense_block``, the single-index samplers) are
aggregated into call counts and time instead, so tracing stays cheap.  A
span's self time is its duration minus the time covered by its child
spans and by the outermost aggregated calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field

from opcounts import FLOAT_BYTES, birkhoff, frame_run


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    pipeline: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Aggregate:
    calls: int = 0
    seconds: float = 0.0
    work: dict = field(default_factory=dict)


class Tracer:
    """Collects the spans and aggregates of one traced pipeline."""

    def __init__(self, pipeline: int):
        self.pipeline = pipeline
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self._stack: list[Span] = []
        self._agg_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.pipeline,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def span_wrapper(self, name: str, fn, on_result=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(on_result(bound.arguments, result))
            return result
        return wrapper

    def aggregate_wrapper(self, name: str, fn, on_call=None):
        agg = self.aggregates.setdefault(name, Aggregate())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._agg_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._agg_depth -= 1
                agg.calls += 1
                agg.seconds += dt
                if on_call is not None:
                    on_call(agg.work, args, kwargs)
                if self._agg_depth == 0 and self._stack:
                    self._stack[-1].child_s += dt
        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, key: str) -> float:
        return sum(s.attrs[key] for s in self.named(name))

    def seconds(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def to_json(self) -> dict:
        return {"pipeline": self.pipeline,
                "spans": [{"id": s.id, "name": s.name, "parent": s.parent,
                           "start": s.start, "end": s.end,
                           "self_s": s.self_s, **s.attrs} for s in self.spans],
                "aggregates": {k: {"calls": a.calls, "seconds": a.seconds, **a.work}
                               for k, a in self.aggregates.items()}}


# -- gossipgap probes ---------------------------------------------------------


def _dense_block_work(work: dict, args, kwargs) -> None:
    proc = args[0]
    m = int(args[1] if len(args) > 1 else kwargs["m"])
    work["emissions"] = work.get("emissions", 0) + m
    work["bytes"] = work.get("bytes", 0) + m * proc.p * proc.p * FLOAT_BYTES


def _qr_attrs(a, result) -> dict:
    c = frame_run(a["proc"].p, a["k"], a["n"], a["reorth_period"],
                  a["replicates"], a["burn_in"])
    return {"replicate_steps": c["replicate_steps"], "qr_calls": c["qr_calls"],
            "flops": c["flops"]}


def _det_attrs(a, result) -> dict:
    n = a["n"]
    qr_n = a["qr_n"] if a["qr_n"] is not None else n
    nested = frame_run(a["proc"].p, a["proc"].p, qr_n, a["reorth_period"],
                       a["replicates"], a["burn_in"])
    return {"steps": n + nested["replicate_steps"]}


def _birkhoff_attrs(a, result) -> dict:
    d = result.diagnostics
    trials = a["trials"]
    useful = trials * (1.0 - d["tau_one_fraction"] - d["tau_zero_fraction"])
    return {**birkhoff(a["m"], trials), "trials": trials, "useful_trials": useful}


def _indices_attrs(a, result) -> dict:
    return {"samples": len(result), "pattern_products": int(result.sum())}


def install_probes(tracer: Tracer, gg) -> None:
    """Wrap the public calls of every layer of the package ``gg``."""
    sw, aw = tracer.span_wrapper, tracer.aggregate_wrapper
    cli, config, generators = gg.cli, gg.config, gg.generators
    tracer.patch(cli, "main", sw("cli.main", cli.main,
                                 lambda a, r: {"command": a["argv"][0], "rc": r}))
    tracer.patch(cli, "load_config", sw("config.load_config", cli.load_config))
    tracer.patch(config.ExperimentConfig, "build_process",
                 sw("config.build_process", config.ExperimentConfig.build_process))
    tracer.patch(generators.MatrixProcess, "next_matrix",
                 aw("generators.next_matrix", generators.MatrixProcess.next_matrix))
    for cls in vars(generators).values():
        if (isinstance(cls, type) and issubclass(cls, generators.MatrixProcess)
                and "dense_block" in cls.__dict__):
            tracer.patch(cls, "dense_block",
                         aw("generators.dense_block", cls.__dict__["dense_block"],
                            _dense_block_work))
    tracer.patch(gg.consensus, "run", sw(
        "consensus.run", gg.consensus.run,
        lambda a, r: {"steps": r.final_state.n,
                      "envelope_violations": r.envelope_violations}))
    sp = gg.spectrum
    for name, attrs in (("estimate_spectrum_qr", _qr_attrs),
                        ("check_det_identity", _det_attrs),
                        ("estimate_sum_top2_wedge", lambda a, r: {"steps": a["n"]}),
                        ("estimate_gap_birkhoff", _birkhoff_attrs)):
        tracer.patch(sp, name, sw(f"spectrum.{name}", getattr(sp, name), attrs))
    pr = gg.primitivity
    tracer.patch(pr, "is_family_primitive", sw(
        "primitivity.is_family_primitive", pr.is_family_primitive,
        lambda a, r: {"states_explored": r.states_explored}))
    for name in ("sample_forward_indices", "sample_backward_indices"):
        tracer.patch(pr, name, sw(f"primitivity.{name}", getattr(pr, name),
                                  _indices_attrs))
    for name in ("sample_forward_index", "sample_backward_index"):
        tracer.patch(pr, name, aw(f"primitivity.{name}", getattr(pr, name)))
    for name in ("add_table", "add_summary", "write_manifest"):
        tracer.patch(gg.report.ReportBundle, name, sw(
            "report.bundle", getattr(gg.report.ReportBundle, name),
            lambda a, r: {"bytes": r.stat().st_size}))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (nan where a layer never ran)."""
    nm = tr.aggregates["generators.next_matrix"]
    db = tr.aggregates["generators.dense_block"]
    bk = "spectrum.estimate_gap_birkhoff"
    calls_cfg = tr.named("config.load_config")
    calls_build = tr.named("config.build_process")
    m = {
        "generators.next_matrix.calls": nm.calls,
        "generators.next_matrix.us_per_call": 1e6 * _ratio(nm.seconds, nm.calls),
        "generators.dense_block.emissions_per_s":
            _ratio(db.work.get("emissions", 0), db.seconds),
        "generators.dense_block.bytes_computed": db.work.get("bytes", 0),
        "consensus.run.steps_per_s":
            _ratio(tr.total("consensus.run", "steps"), tr.seconds("consensus.run")),
        "consensus.run.self_s": tr.self_seconds("consensus.run"),
        "consensus.run.envelope_violations":
            tr.total("consensus.run", "envelope_violations"),
        "spectrum.estimate_spectrum_qr.replicate_steps_per_s": _ratio(
            tr.total("spectrum.estimate_spectrum_qr", "replicate_steps"),
            tr.seconds("spectrum.estimate_spectrum_qr")),
        "spectrum.estimate_spectrum_qr.self_s":
            tr.self_seconds("spectrum.estimate_spectrum_qr"),
        "spectrum.estimate_spectrum_qr.qr_calls":
            tr.total("spectrum.estimate_spectrum_qr", "qr_calls"),
        "spectrum.estimate_spectrum_qr.flops_computed":
            tr.total("spectrum.estimate_spectrum_qr", "flops"),
        "spectrum.check_det_identity.steps_per_s": _ratio(
            tr.total("spectrum.check_det_identity", "steps"),
            tr.seconds("spectrum.check_det_identity")),
        "spectrum.estimate_sum_top2_wedge.steps_per_s": _ratio(
            tr.total("spectrum.estimate_sum_top2_wedge", "steps"),
            tr.seconds("spectrum.estimate_sum_top2_wedge")),
        f"{bk}.trial_steps_per_s": _ratio(tr.total(bk, "trial_steps"), tr.seconds(bk)),
        f"{bk}.svd_calls": tr.total(bk, "svd_calls"),
        f"{bk}.useful_trial_ratio": _ratio(tr.total(bk, "useful_trials"),
                                           tr.total(bk, "trials")),
        "primitivity.is_family_primitive.s":
            tr.seconds("primitivity.is_family_primitive"),
        "primitivity.is_family_primitive.states_explored":
            tr.total("primitivity.is_family_primitive", "states_explored"),
        "config.load_config.s": _ratio(sum(s.duration for s in calls_cfg),
                                       len(calls_cfg)),
        "config.build_process.s": _ratio(sum(s.duration for s in calls_build),
                                         len(calls_build)),
        "report.bundle.write_s": tr.seconds("report.bundle"),
        "report.bundle.bytes_written": tr.total("report.bundle", "bytes"),
    }
    for name in ("sample_forward_indices", "sample_backward_indices"):
        key = f"primitivity.{name}"
        m[f"{key}.samples_per_s"] = _ratio(tr.total(key, "samples"), tr.seconds(key))
        m[f"{key}.pattern_products"] = tr.total(key, "pattern_products")
    return m


def combine(per_pipeline: list[dict], counts: set[str]) -> dict[str, float]:
    """Counts from the first traced pipeline (exact for a given seed);
    rates and times as the median over traced pipelines."""
    return {k: (per_pipeline[0][k] if k in counts
                else statistics.median(p[k] for p in per_pipeline))
            for k in per_pipeline[0]}
