"""Per-layer spans around embedstab's public functions, recorded from outside.

The tracer replaces every binding of each traced function (the defining
module's, and every other module's that imported it) with a wrapper, so a
span is timed at the name each caller looks up: ``embedstab.cli`` and
``embedstab.instability`` both call ``reduced_pip_loss`` and both are seen.
Spans are kept in memory as [name, start, end, parent, info] and are only
recorded under a command's root span, so the benchmark's own checks stay
out of the trace.  A layer's self time is the time of its spans minus the
time covered by their child spans; summed over layers it reconciles to each
command's wall time.
"""

from __future__ import annotations

import importlib
import os
import statistics
from time import perf_counter
from types import FunctionType

LAYERS = ("corpus", "sgns", "space", "overlap", "pip_loss", "gaussian",
          "instability", "align", "change", "stats", "cli")
COMMANDS = ("train", "instability", "overlap", "average", "predict", "pip", "change")

# (metric, unit) in output order; every name here is in BENCHMARK.json's per_layer.
METRICS = (
    ("sgns.train_s", "s"), ("sgns.train_calls", "count"), ("sgns.tokens", "count"),
    ("sgns.tokens_per_s", "tokens/s"), ("sgns.self_s", "s"),
    ("corpus.sample_s", "s"), ("corpus.sample_calls", "count"), ("corpus.self_s", "s"),
    ("space.load_s", "s"), ("space.load_calls", "count"), ("space.load_mb", "MB"),
    ("space.load_mb_per_s", "MB/s"), ("space.save_s", "s"), ("space.save_calls", "count"),
    ("space.save_mb", "MB"), ("space.save_mb_per_s", "MB/s"), ("space.normalize_s", "s"),
    ("space.normalize_calls", "count"), ("space.self_s", "s"),
    ("pip_loss.pair_s", "s"), ("pip_loss.pairs_computed", "count"),
    ("pip_loss.pairs_distinct", "count"), ("pip_loss.pairs_useful_ratio", "ratio"),
    ("pip_loss.proxy_words", "count"), ("pip_loss.s_per_pair", "s"),
    ("pip_loss.wordwise_s", "s"), ("pip_loss.wordwise_calls", "count"),
    ("pip_loss.sample_proxy_s", "s"), ("pip_loss.self_s", "s"),
    ("instability.self_s", "s"), ("instability.words", "count"),
    ("overlap.lists_s", "s"), ("overlap.lists_computed", "count"),
    ("overlap.lists_distinct", "count"), ("overlap.lists_useful_ratio", "ratio"),
    ("overlap.self_s", "s"),
    ("gaussian.estimate_s", "s"), ("gaussian.profiles", "count"), ("gaussian.queries", "count"),
    ("gaussian.p1_s", "s"), ("gaussian.p2_s", "s"), ("gaussian.structure_s", "s"),
    ("gaussian.s_per_profile", "s"), ("gaussian.save_s", "s"), ("gaussian.self_s", "s"),
    ("align.tree_s", "s"), ("align.merges", "count"), ("align.procrustes_s", "s"),
    ("align.procrustes_calls", "count"), ("align.self_s", "s"),
    ("change.report_s", "s"), ("change.scored_words", "count"), ("change.evaluate_s", "s"),
    ("change.self_s", "s"),
    *((f"cli.{command}_s", "s") for command in COMMANDS),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    return os.path.getsize(path) if path is not None else 0


# Work counts read from a call's arguments or result after its span closed.
_INFO = {
    "sgns.train": lambda a, k, r: sum(r.vocab.frequency.values()) * _arg(a, k, 1, "config").epochs,
    "space.load_text_vectors": lambda a, k, r: _size(_arg(a, k, 0, "path"))
    + _size(a[1] if len(a) > 1 else k.get("frequency_path")),
    "space.save_text_vectors": lambda a, k, r: _size(_arg(a, k, 1, "path")),
    "space.save_frequencies": lambda a, k, r: _size(_arg(a, k, 1, "path")),
    "pip_loss.pip_loss": lambda a, k, r: (id(a[0]), id(a[1]), id(a[2]), len(a[2])),
    "pip_loss.reduced_pip_loss": lambda a, k, r: (id(a[0]), id(a[1]), id(a[2]), len(a[2])),
    "overlap._neighbor_lists": lambda a, k, r: [(id(s), t) for s in a[0] for t in a[1]],
    "gaussian.estimate_profile": lambda a, k, r: len(r),
    "gaussian.expected_overlap": lambda a, k, r: _arg(a, k, 1, "n"),
    "align.aligned_average_tree": lambda a, k, r: len(a[0]) - 1,
    "change.build_change_report": lambda a, k, r: len(r.scored_vocab),
}


class Tracer:
    """Patches embedstab's public functions with span-recording wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, self._stack[-1], None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if info is not None:
                try:
                    span[4] = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap each layer's public functions at every name they are bound to."""
        modules = [importlib.import_module("embedstab")]
        modules += [importlib.import_module(f"embedstab.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            names = list(getattr(module, "__all__", ()))
            if layer == "overlap" and hasattr(module, "_neighbor_lists"):
                names.append("_neighbor_lists")
            for attr in names:
                fn = getattr(module, attr)
                if isinstance(fn, FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and isinstance(value, FunctionType):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def command(self, name: str, fn, *args):
        """Run one CLI command under a root span `cli.<name>`."""
        span = [f"cli.{name}", perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()


def analyze_spans(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics, per-root reconciliation) from one iteration's spans.

    The reconciliation maps each root span index to its summed layer self
    time, which must equal the root's duration.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    root = [0] * n
    for i, s in enumerate(spans):
        parent = s[3]
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += dur[i]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    self_by_root: dict[int, float] = {}
    for i, s in enumerate(spans):
        self_time = dur[i] - child[i]
        layer_self[s[0].split(".", 1)[0]] += self_time
        self_by_root[root[i]] = self_by_root.get(root[i], 0.0) + self_time

    def under(i: int, names: tuple[str, ...]) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def outer(names: tuple[str, ...], exclude: tuple[str, ...] = ()) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] in names and not under(i, names + exclude)]

    def time(idx) -> float:
        return sum(dur[i] for i in idx)

    def infos(idx) -> list:
        return [spans[i][4] for i in idx if spans[i][4] is not None]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    train = outer(("sgns.train",))
    m["sgns.train_s"] = time(train)
    m["sgns.train_calls"] = len(train)
    m["sgns.tokens"] = sum(infos(train))
    m["sgns.tokens_per_s"] = ratio(m["sgns.tokens"], m["sgns.train_s"])
    sample = outer(("corpus.sample",))
    m["corpus.sample_s"], m["corpus.sample_calls"] = time(sample), len(sample)

    load = outer(("space.load_text_vectors", "space.load_frequencies"))
    m["space.load_s"] = time(load)
    m["space.load_calls"] = sum(spans[i][0] == "space.load_text_vectors" for i in load)
    m["space.load_mb"] = sum(infos(load)) / 1e6
    m["space.load_mb_per_s"] = ratio(m["space.load_mb"], m["space.load_s"])
    save = outer(("space.save_text_vectors", "space.save_frequencies"))
    m["space.save_s"] = time(save)
    m["space.save_calls"] = sum(spans[i][0] == "space.save_text_vectors" for i in save)
    m["space.save_mb"] = sum(infos(save)) / 1e6
    m["space.save_mb_per_s"] = ratio(m["space.save_mb"], m["space.save_s"])
    normalize = outer(("space.normalize",))
    m["space.normalize_s"], m["space.normalize_calls"] = time(normalize), len(normalize)

    pairs = outer(("pip_loss.reduced_pip_loss", "pip_loss.pip_loss"))
    keys = [(root[i], *spans[i][4][:3]) for i in pairs if spans[i][4] is not None]
    m["pip_loss.pair_s"] = time(pairs)
    m["pip_loss.pairs_computed"] = len(pairs)
    m["pip_loss.pairs_distinct"] = len(set(keys))
    m["pip_loss.pairs_useful_ratio"] = ratio(m["pip_loss.pairs_distinct"], len(pairs))
    m["pip_loss.proxy_words"] = sum(info[3] for info in infos(pairs))
    m["pip_loss.s_per_pair"] = ratio(m["pip_loss.pair_s"], len(pairs))
    wordwise = outer(("pip_loss.wordwise_reduced_pip_loss",))
    m["pip_loss.wordwise_s"], m["pip_loss.wordwise_calls"] = time(wordwise), len(wordwise)
    m["pip_loss.sample_proxy_s"] = time(outer(("pip_loss.sample_proxy",)))

    m["instability.words"] = len(outer(("instability.wordwise_instability",)))

    lists = outer(("overlap._neighbor_lists",))
    if lists:
        keys = {(root[i], *key) for i in lists for key in (spans[i][4] or ())}
        m["overlap.lists_computed"] = sum(len(spans[i][4] or ()) for i in lists)
    else:  # no neighbor-list helper: count the public entry points instead
        lists = outer(("overlap.mean_overlap", "overlap.p_at_n"))
        keys = set()
        m["overlap.lists_computed"] = 0
    m["overlap.lists_s"] = time(lists)
    m["overlap.lists_distinct"] = len(keys)
    m["overlap.lists_useful_ratio"] = ratio(len(keys), m["overlap.lists_computed"])

    profiles = outer(("gaussian.estimate_profile",))
    m["gaussian.estimate_s"] = time(profiles)
    m["gaussian.profiles"] = len(profiles)
    m["gaussian.queries"] = sum(infos(profiles))
    overlaps = outer(("gaussian.expected_overlap",), ("gaussian.structure_factor",))
    m["gaussian.p1_s"] = time(i for i in overlaps if spans[i][4] == 1)
    m["gaussian.p2_s"] = time(i for i in overlaps if spans[i][4] == 2)
    m["gaussian.structure_s"] = time(outer(("gaussian.structure_factor",)))
    m["gaussian.s_per_profile"] = ratio(layer_self["gaussian"], len(profiles))
    m["gaussian.save_s"] = time(outer(("gaussian.save_profile",)))

    trees = outer(("align.aligned_average_tree",))
    m["align.tree_s"] = time(trees)
    m["align.merges"] = sum(infos(trees))
    procrustes = outer(("align.procrustes",))
    m["align.procrustes_s"], m["align.procrustes_calls"] = time(procrustes), len(procrustes)

    reports = outer(("change.build_change_report",))
    m["change.report_s"] = time(reports)
    m["change.scored_words"] = sum(infos(reports))
    m["change.evaluate_s"] = time(outer(("change.evaluate",)))

    for command in COMMANDS:
        m[f"cli.{command}_s"] = time(i for i, s in enumerate(spans) if s[0] == f"cli.{command}")
    for layer in LAYERS:
        if layer != "stats":
            m[f"{layer}.self_s"] = layer_self[layer]
    return m, self_by_root


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
