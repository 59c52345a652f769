"""Spans around metd's public functions, installed from outside ``src/``.

A wrapper goes on every module attribute that is bound to a traced
function, because metd's modules import functions by name
(``from .inference import evaluate``): the binding a caller actually uses
is ``metd.training.evaluate`` or ``metd.cli.evaluate``, not only
``metd.inference.evaluate``.  :func:`install` wraps them all and returns
a handle whose :meth:`Installed.restore` puts every original back.

Each wrapped call opens a span (name, start, end, parent).  Per-name
calls, total time and self time are accumulated as each span closes, so
memory stays flat even for the millions of ``numerics`` calls of one
training run.  Spans of the functions not marked hot are also kept in
memory, for the statistics that need span order and parentage (batch
latency, per-epoch evaluation).

Accounting rules, shared by the live tracer and :func:`span_stats`:

- self time is the span's duration minus the durations of its direct
  children, so each child is subtracted once;
- total time sums only the outermost span of each name, so a function
  nested inside itself is not counted twice.
"""

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name, hot).  Hot functions run per sample or
# per vector; their spans are folded into the counters and not kept.
TARGETS = (
    ("cli", "cmd_train", "cli.train", False),
    ("cli", "cmd_eval", "cli.eval", False),
    ("cli", "cmd_compare", "cli.compare", False),
    ("cli", "cmd_fdcheck", "cli.fdcheck", False),
    ("config", "parse_config", "config.parse_config", False),
    ("data", "load_dataset", "data.load_dataset", False),
    ("data", "save_dataset", "data.save_dataset", False),
    ("data", "generate_synthetic", "data.generate_synthetic", False),
    ("model", "load_checkpoint", "model.load_checkpoint", False),
    ("model", "save_checkpoint", "model.save_checkpoint", False),
    ("model", "bank_embeddings", "model.bank_embeddings", False),
    ("model", "encode_image", "model.encode_image", True),
    ("model", "adapter_gradients", "model.adapter_gradients", True),
    ("numerics", "as_vector", "numerics.as_vector", True),
    ("numerics", "cosine_similarity", "numerics.cosine_similarity", True),
    ("numerics", "log_sum_exp", "numerics.log_sum_exp", True),
    ("numerics", "stable_softmax", "numerics.stable_softmax", True),
    ("losses", "similarity_grid", "losses.similarity_grid", True),
    ("losses", "total_loss", "losses.total_loss", True),
    ("losses", "loss_gradients", "losses.loss_gradients", True),
    ("losses", "modulating_factor", "losses.modulating_factor", True),
    ("training", "run_stage1", "training.run_stage1", False),
    ("training", "run_stage2", "training.run_stage2", False),
    ("training", "optimizer_step", "training.optimizer_step", False),
    ("training", "fd_check", "training.fd_check", False),
    ("training", "central_difference", "training.central_difference", False),
    ("inference", "evaluate", "inference.evaluate", False),
    ("inference", "subclass_report", "inference.subclass_report", False),
    ("inference", "predict", "inference.predict", True),
    ("inference", "unit_embedding", "inference.unit_embedding", True),
    ("harness", "run_strategy", "harness.run_strategy", False),
    ("harness", "default_benchmark", "harness.default_benchmark", False),
)

# The strategies the compare-baselines workload runs; their per-kind
# spans are reported even where a workload runs none of them.
STRATEGY_KINDS = ("zero-shot-fixed", "linear-probe", "full-finetune", "learnable-context")


@dataclass
class Tracer:
    """Per-name counters plus the kept spans of one process."""

    names: list = field(default_factory=list)
    ids: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)
    total: list = field(default_factory=list)
    self_time: list = field(default_factory=list)
    depth: list = field(default_factory=list)
    # open frames: [name id, span id, start, time covered by children]
    stack: list = field(default_factory=list)
    # kept spans: (span id, name, start, end, parent span id or -1)
    spans: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    probe_state: dict = field(default_factory=dict)
    next_span: int = 0

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.depth.append(0)
        return nid

    def enter(self, nid: int, start: float) -> list:
        frame = [nid, self.next_span, start, 0.0]
        self.next_span += 1
        self.depth[nid] += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, end: float, keep: bool):
        stack = self.stack
        if stack.pop() is not frame:
            raise RuntimeError("span closed out of order")
        nid, sid, start, children = frame
        duration = end - start
        self.calls[nid] += 1
        self.self_time[nid] += duration - children
        self.depth[nid] -= 1
        if self.depth[nid] == 0:
            self.total[nid] += duration
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        if keep:
            self.spans.append(
                (sid, self.names[nid], start, end, parent[1] if parent else -1)
            )

    def exclude(self, seconds: float):
        """Hide probe time from the enclosing span's self time."""
        if self.stack:
            self.stack[-1][3] += seconds

    def add(self, key: str, amount: float = 1.0):
        self.values[key] = self.values.get(key, 0.0) + amount

    def active(self, name: str) -> bool:
        nid = self.ids.get(name)
        return nid is not None and self.depth[nid] > 0

    def stats(self) -> dict:
        """Counters and kept-span statistics, as plain JSON-able data."""
        per_name = {
            name: {
                "calls": self.calls[i],
                "s": self.total[i],
                "self_s": self.self_time[i],
            }
            for i, name in enumerate(self.names)
        }
        return {
            "names": per_name,
            "values": dict(self.values),
            "batch_gaps": batch_gaps(self.spans),
            "epoch_eval_s": epoch_eval_seconds(self.spans),
        }


def span_stats(spans) -> Tracer:
    """Replay finished spans through a fresh tracer.

    ``spans`` holds (span id, name, start, end, parent span id or -1)
    tuples of properly nested spans.  The result carries the same
    counters the live wrappers would have produced.
    """
    tracer = Tracer()
    ordered = sorted(spans, key=lambda s: (s[2], -s[3]))
    open_spans = []  # (span tuple, frame)

    def close_until(time_point):
        while open_spans and open_spans[-1][0][3] <= time_point:
            span, frame = open_spans.pop()
            tracer.exit(frame, span[3], keep=True)

    for span in ordered:
        close_until(span[2])
        expected = open_spans[-1][0][0] if open_spans else -1
        if span[4] != expected:
            raise ValueError(f"span {span[0]} is not nested in its parent {span[4]}")
        frame = tracer.enter(tracer.name_id(span[1]), span[2])
        open_spans.append((span, frame))
    close_until(float("inf"))
    return tracer


def batch_gaps(spans) -> list:
    """Gaps between successive optimizer steps of one epoch.

    Two steps belong to one epoch when they share a parent span and no
    evaluation started between them; the per-epoch evaluation of a
    training stage therefore never counts as batch time.
    """
    gaps = []
    previous = {}  # parent span id -> start of its last optimizer step
    for _, name, start, _, parent in sorted(spans, key=lambda s: s[2]):
        if name == "inference.evaluate":
            previous.clear()
        elif name == "training.optimizer_step":
            if parent in previous:
                gaps.append(start - previous[parent])
            previous[parent] = start
    return gaps


def epoch_eval_seconds(spans) -> float:
    """Time in ``evaluate`` calls made directly by a training stage."""
    stage_ids = {
        s[0] for s in spans if s[1] in ("training.run_stage1", "training.run_stage2")
    }
    return sum(s[3] - s[2] for s in spans if s[1] == "inference.evaluate" and s[4] in stage_ids)


# --- probes: extra counters read from a wrapped call's arguments -------------


def _probe_rows(tracer, args, kwargs, result):
    tracer.add("data.load_dataset.rows", len(result))


def _probe_bank(tracer, args, kwargs, result):
    bank = args[0] if args else kwargs["bank"]
    encoder = args[1] if len(args) > 1 else kwargs["encoder"]
    key = bank.tokens.tobytes() + bank.context.tobytes()
    if encoder.projection is not None:
        key += encoder.projection.tobytes()
    if tracer.probe_state.get("bank") == key:
        tracer.add("model.bank_embeddings.wasted")
    tracer.probe_state["bank"] = key


def _probe_unit(tracer, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    unit = args[1] if len(args) > 1 else kwargs["unit"]
    adapter = model.adapter
    adapter_key = adapter.weight.tobytes() + adapter.bias.tobytes() + bytes([adapter.residual])
    state = tracer.probe_state
    if state.get("adapter") != adapter_key:
        state["adapter"] = adapter_key
        state["frames"] = set()
    seen = state["frames"]
    frames_key = unit.frames.tobytes()
    if frames_key in seen:
        tracer.add("inference.unit_embedding.wasted")
    else:
        seen.add(frames_key)
    if tracer.active("cli.eval"):
        tracer.add("inference.unit_embedding.in_eval")


def _strategy_name(args, kwargs) -> str:
    strategy = args[0] if args else kwargs["strategy"]
    return f"harness.run_strategy.{strategy.kind}"


def _probe_strategy(tracer, args, kwargs, result):
    tracer.values[f"{_strategy_name(args, kwargs)}.war"] = result.war


PROBES = {
    "data.load_dataset": _probe_rows,
    "model.bank_embeddings": _probe_bank,
    "inference.unit_embedding": _probe_unit,
    "harness.run_strategy": _probe_strategy,
}


def make_wrapper(fn, name: str, hot: bool, tracer: Tracer):
    """A transparent wrapper that records one span per call of ``fn``."""
    clock = time.perf_counter
    enter = tracer.enter
    leave = tracer.exit
    probe = PROBES.get(name)
    keep = not hot
    # run_strategy gets one span name per strategy kind
    name_of = _strategy_name if name == "harness.run_strategy" else None
    fixed = tracer.name_id(name) if name_of is None else None

    if probe is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(fixed, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, clock(), keep)

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nid = fixed if name_of is None else tracer.name_id(name_of(args, kwargs))
        frame = enter(nid, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(frame, clock(), keep)
        started = clock()
        probe(tracer, args, kwargs, result)
        tracer.exclude(clock() - started)
        return result

    return wrapper


def metd_modules() -> list:
    """Every loaded metd module, after importing the CLI and its imports."""
    importlib.import_module("metd.cli")
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "metd" or name.startswith("metd.")) and module is not None
    ]


@dataclass
class Installed:
    tracer: Tracer
    replaced: list  # (module, attribute, original)

    def restore(self):
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced = []


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    """Wrap every binding of every target function in every metd module."""
    modules = metd_modules()
    installed = Installed(tracer=tracer, replaced=[])
    try:
        for module_name, attr, name, hot in targets:
            owner = sys.modules[f"metd.{module_name}"]
            if not hasattr(owner, attr):
                raise LookupError(f"metd.{module_name}.{attr} does not exist; cannot trace {name}")
            original = getattr(owner, attr)
            wrapper = make_wrapper(original, name, hot, tracer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        installed.replaced.append((module, key, original))
    except BaseException:
        installed.restore()
        raise
    return installed


def merge(stats_list) -> dict:
    """Sum the stats of several traced processes."""
    merged = {"names": {}, "values": {}, "batch_gaps": [], "epoch_eval_s": 0.0}
    for stats in stats_list:
        for name, entry in stats["names"].items():
            into = merged["names"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for key, value in stats["values"].items():
            if key.endswith(".war"):
                merged["values"][key] = value
            else:
                merged["values"][key] = merged["values"].get(key, 0.0) + value
        merged["batch_gaps"].extend(stats["batch_gaps"])
        merged["epoch_eval_s"] += stats["epoch_eval_s"]
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(merged: dict, units_in_eval: int, overhead: float) -> dict:
    """Name -> (value, unit) for every per-layer metric of BENCHMARK.json.

    ``units_in_eval`` is the number of units the traced ``metd eval``
    commands were asked to score, summed over commands.
    """
    names = merged["names"]
    values = merged["values"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    out = {}

    def timing(name):
        out[f"{name}.s"] = (get(name, "s"), "s")

    def calls_self(name):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")

    for name in ("cli.train", "cli.eval", "cli.compare", "cli.fdcheck", "config.parse_config"):
        timing(name)
    timing("data.load_dataset")
    out["data.load_dataset.rows_per_s"] = (
        _ratio(values.get("data.load_dataset.rows", 0.0), get("data.load_dataset", "s")),
        "rows/s",
    )
    timing("data.save_dataset")
    timing("data.generate_synthetic")
    timing("model.load_checkpoint")
    timing("model.save_checkpoint")
    for name in ("model.bank_embeddings", "model.encode_image", "model.adapter_gradients"):
        calls_self(name)
    out["model.bank_embeddings.wasted_ratio"] = (
        _ratio(values.get("model.bank_embeddings.wasted", 0.0), get("model.bank_embeddings", "calls")),
        "ratio",
    )
    for name in ("as_vector", "cosine_similarity", "log_sum_exp", "stable_softmax"):
        out[f"numerics.{name}.calls"] = (get(f"numerics.{name}", "calls"), "count")
    sample_gradients = get("losses.loss_gradients", "calls")
    out["numerics.as_vector.per_sample"] = (
        _ratio(get("numerics.as_vector", "calls"), sample_gradients),
        "count",
    )
    for name in ("losses.similarity_grid", "losses.total_loss", "losses.loss_gradients"):
        calls_self(name)
    out["losses.modulating_factor.calls"] = (get("losses.modulating_factor", "calls"), "count")
    out["losses.similarity_grid.per_sample"] = (
        _ratio(get("losses.similarity_grid", "calls"), sample_gradients),
        "count",
    )
    timing("training.run_stage1")
    timing("training.run_stage2")
    calls_self("training.optimizer_step")
    gaps = merged["batch_gaps"]
    out["training.batch_s.p50"] = (_quantile(gaps, 50), "s")
    out["training.batch_s.p90"] = (_quantile(gaps, 90), "s")
    out["training.epoch_eval.s"] = (merged["epoch_eval_s"], "s")
    stage_time = get("training.run_stage1", "s") + get("training.run_stage2", "s")
    out["training.epoch_eval.share"] = (_ratio(merged["epoch_eval_s"], stage_time), "ratio")
    calls_self("training.fd_check")
    calls_self("training.central_difference")
    for name in ("evaluate", "subclass_report", "predict", "unit_embedding"):
        calls_self(f"inference.{name}")
    out["inference.scoring_passes_per_eval"] = (
        _ratio(values.get("inference.unit_embedding.in_eval", 0.0), units_in_eval),
        "count",
    )
    out["inference.unit_embedding.wasted_ratio"] = (
        _ratio(values.get("inference.unit_embedding.wasted", 0.0), get("inference.unit_embedding", "calls")),
        "ratio",
    )
    for kind in STRATEGY_KINDS:
        name = f"harness.run_strategy.{kind}"
        out[f"{name}.s"] = (get(name, "s"), "s")
        out[f"{name}.war"] = (values.get(f"{name}.war", 0.0), "ratio")
    timing("harness.default_benchmark")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def missing_calls(merged: dict, expected) -> list:
    """The expected span names that recorded no call."""
    return [name for name in expected if merged["names"].get(name, {}).get("calls", 0) == 0]
