"""Span recorder for the traced benchmark run, installed from outside dvae.

`Tracer.install` replaces public dvae functions and methods with timing
wrappers. A function is patched under every name a dvae module binds it to
(`dvae.model.categorical_sample` as well as
`dvae.distributions.categorical_sample`), because modules call the names they
imported. Methods are patched on their class. A target that no longer exists
is recorded in `missing` and skipped, so the benchmark keeps running across
refactors. `uninstall` restores every original.

Each call is a span with a parent (the enclosing traced call) and a root
(the outermost one, which identifies the request). Self time is a span's
duration minus its children's; aggregates are kept per metric name, and the
first `span_cap` spans are kept in memory and written out by `write`.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

import numpy as np


def _mlp_role(op: str):
    def name(args) -> str:
        head = getattr(args[0], "head", None)
        role = {"softmax": "encoder", "sigmoid": "decoder"}.get(head, "mlp")
        return f"network.{role}.{op}"
    return name


def _count_backward_bytes(tracer, args, kwargs, result) -> None:
    # One outer product per layer per call: write the temporary, then read
    # it and the accumulator and write the accumulator, 8 bytes a weight.
    weights = sum(layer.weights.size for layer in getattr(args[0], "layers", ()))
    tracer.count("network.backward.bytes", 4 * 8 * weights)


def _count_examples(tracer, args, kwargs, result) -> None:
    x = args[1] if len(args) > 1 else kwargs.get("x")
    tracer.count("model.compute_gradients.examples", x.shape[0] if np.ndim(x) == 2 else 1)


def _count_configs(tracer, args, kwargs, result) -> None:
    tracer.count("oracle.enumerate_table.configs", len(getattr(result, "q_probs", ())))


def _count_objective_calls(tracer, args, kwargs):
    if args:
        objective, args = args[0], args[1:]
    else:
        objective = kwargs.pop("objective")

    def counted(*a, **kw):
        tracer.count("oracle.finite_difference.objective_calls")
        return objective(*a, **kw)
    return (counted, *args), kwargs


def _file_bytes(counter: str, positions: tuple[int, ...], keys: tuple[str, ...]):
    def hook(tracer, args, kwargs, result) -> None:
        paths = [args[i] for i in positions if i < len(args)] + [kwargs.get(k) for k in keys]
        tracer.count(counter, sum(os.path.getsize(p) for p in paths
                                  if isinstance(p, (str, os.PathLike)) and os.path.isfile(p)))
    return hook


# (module, attribute, span name, pre-call hook, post-call hook). "Cls.attr"
# names a method; "SUITES[key]" an entry of a module-level dict.
TARGETS = [
    ("dvae.tensor", "rowwise_softmax", "tensor.softmax", None, None),
    ("dvae.tensor", "sigmoid", "tensor.sigmoid", None, None),
    ("dvae.distributions", "categorical_sample", "distributions.categorical_sample", None, None),
    ("dvae.distributions", "aggregate_bce", "distributions.elbo_terms", None, None),
    ("dvae.distributions", "aggregate_entropy", "distributions.elbo_terms", None, None),
    ("dvae.network", "Mlp.create", "network.init", None, None),
    ("dvae.network", "Mlp.forward", _mlp_role("forward"), None, None),
    ("dvae.network", "Mlp.backward", _mlp_role("backward"), None, _count_backward_bytes),
    ("dvae.network", "Mlp.sga_step", "network.sga_step", None, None),
    ("dvae.model", "DiscreteVae.sample_latent", "model.sample_latent", None, None),
    ("dvae.model", "DiscreteVae.compute_gradients", "model.compute_gradients", None,
     _count_examples),
    ("dvae.oracle", "enumerate_table", "oracle.enumerate_table", None, _count_configs),
    ("dvae.oracle", "exact_encoder_gradient", "oracle.exact_encoder_gradient", None, None),
    ("dvae.oracle", "finite_difference", "oracle.finite_difference", _count_objective_calls,
     None),
    ("dvae.oracle", "SUITES[grads]", "oracle.suite.grads", None, None),
    ("dvae.oracle", "SUITES[bound]", "oracle.suite.bound", None, None),
    ("dvae.oracle", "SUITES[unbiased]", "oracle.suite.unbiased", None, None),
    ("dvae.data", "load_binarized", "data.load_binarized", None,
     _file_bytes("data.load_binarized.bytes", (0, 1), ("images_path", "labels_path"))),
    ("dvae.data", "batches", "data.batches", None, None),
    ("dvae.trainer", "evaluate", "trainer.evaluate", None, None),
    ("dvae.trainer", "train", "trainer.train", None, None),
    ("dvae.trainer", "save_checkpoint", "trainer.save_checkpoint", None,
     _file_bytes("trainer.save_checkpoint.bytes", (1,), ("path",))),
    ("dvae.trainer", "load_checkpoint", "trainer.load_checkpoint", None, None),
    ("dvae.cli", "main", "cli.main", None, None),
]


class Tracer:
    """Records spans of the wrapped calls; see the module docstring."""

    def __init__(self, span_cap: int = 50_000):
        self.stats: dict[str, list] = {}     # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []         # (id, parent, root, name, start, end)
        self.span_cap = span_cap
        self.missing: list[str] = []
        self._stack: list[list] = []         # [id, root, start, child seconds]
        self._next_id = 0
        self._undo: list = []
        self._t0 = perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, name: str, field: str) -> float:
        calls, incl, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "incl": incl, "self": self_s}[field]

    @property
    def span_count(self) -> int:
        return self._next_id

    def self_total(self) -> float:
        return sum(s[2] for s in self.stats.values())

    def wrap(self, fn, name, pre=None, post=None):
        stack, stats, spans = self._stack, self.stats, self.spans

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, parent[1] if parent else span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                agg = stats.setdefault(label, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                if len(spans) < self.span_cap:
                    spans.append((span_id, parent[0] if parent else None, frame[1], label,
                                  frame[2] - self._t0, end - self._t0))
            if post is not None:
                post(self, args, kwargs, result)
            return result
        return traced

    def install(self, targets=TARGETS) -> None:
        self.missing = []
        for module_name, attr, name, pre, post in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "[" in attr:
                self._patch_entry(module, attr, name, pre, post)
            elif "." in attr:
                self._patch_method(module, attr, name, pre, post)
            else:
                self._patch_function(module, attr, name, pre, post)

    def _patch_function(self, module, attr, name, pre, post) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.wrap(original, name, pre, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dvae" or mod_name.startswith("dvae.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, original))

    def _patch_method(self, module, attr, name, pre, post) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(raw.__func__, name, pre, post))
        else:
            replacement = self.wrap(raw, name, pre, post)
        setattr(cls, meth, replacement)
        self._undo.append((setattr, cls, meth, raw))

    def _patch_entry(self, module, attr, name, pre, post) -> None:
        table_name, key = attr.rstrip("]").split("[")
        table = getattr(module, table_name, None)
        if not isinstance(table, dict) or key not in table:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = table[key]
        table[key] = self.wrap(original, name, pre, post)
        self._undo.append((dict.__setitem__, table, key, original))

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def write(self, path) -> None:
        """Kept spans as JSON lines, times in seconds since the tracer started."""
        with open(path, "w", encoding="ascii") as f:
            for span_id, parent, root, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "root": root,
                                    "name": name, "start": round(start, 9),
                                    "end": round(end, 9)}) + "\n")


def span_cost(n: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None
    traced = Tracer(span_cap=0).wrap(noop, "noop")
    elapsed = []
    for fn in (noop, traced):
        start = perf_counter()
        for _ in range(n):
            fn()
        elapsed.append(perf_counter() - start)
    return max(elapsed[1] - elapsed[0], 0.0) / n


def layer_metrics(t: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit), per traced pass."""
    def stat(name, field):
        return t.stat(name, field) / passes

    def counter(name):
        return t.counters.get(name, 0) / passes

    examples = counter("model.compute_gradients.examples")
    out = {}
    for layer in ("network.encoder.forward", "network.decoder.forward",
                  "distributions.categorical_sample", "model.compute_gradients",
                  "oracle.enumerate_table", "trainer.evaluate"):
        out[f"{layer}.calls"] = (stat(layer, "calls"), "count")
    for layer in ("network.encoder.forward", "network.decoder.forward",
                  "network.encoder.backward", "network.decoder.backward",
                  "network.sga_step", "tensor.softmax", "tensor.sigmoid",
                  "distributions.categorical_sample", "distributions.elbo_terms",
                  "model.sample_latent", "model.compute_gradients",
                  "oracle.enumerate_table", "oracle.exact_encoder_gradient",
                  "oracle.finite_difference", "trainer.evaluate", "trainer.train",
                  "cli.main"):
        out[f"{layer}.self_s"] = (stat(layer, "self"), "s")
    out["network.backward.calls"] = (stat("network.encoder.backward", "calls")
                                     + stat("network.decoder.backward", "calls"), "count")
    out["network.backward.bytes_per_example"] = (
        counter("network.backward.bytes") / examples if examples else 0.0, "B")
    out["network.init_s"] = (stat("network.init", "incl"), "s")
    out["oracle.enumerate_table.configs"] = (counter("oracle.enumerate_table.configs"), "count")
    out["oracle.finite_difference.objective_calls"] = (
        counter("oracle.finite_difference.objective_calls"), "count")
    for suite in ("grads", "bound", "unbiased"):
        out[f"oracle.suite.{suite}_s"] = (stat(f"oracle.suite.{suite}", "incl"), "s")
    out["data.load_binarized.s"] = (stat("data.load_binarized", "incl"), "s")
    out["data.load_binarized.bytes"] = (counter("data.load_binarized.bytes"), "B")
    out["data.batches_s"] = (stat("data.batches", "incl"), "s")
    out["trainer.save_checkpoint.s"] = (stat("trainer.save_checkpoint", "incl"), "s")
    out["trainer.save_checkpoint.bytes"] = (counter("trainer.save_checkpoint.bytes"), "B")
    out["trainer.load_checkpoint_s"] = (stat("trainer.load_checkpoint", "incl"), "s")
    out["trace.missing"] = (len(t.missing), "count")
    out["trace.spans"] = (t.span_count / passes, "count")
    return out
