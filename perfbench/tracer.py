"""Span recorder that wraps qproxim's public functions from the outside.

Each wrapped function records a span (name, parent, start, end) while the
recorder is enabled.  A wrapped function is rebound in every loaded
``qproxim`` module that holds it by name (``opnorm`` is imported into
``statemetrics``, ``tunnels``, ``crossedprod``, ``lipschitz`` and
``acceptance``; ``bl`` and ``mk`` into ``tunnels``), and the originals are
restored on exit.  Names that
a module no longer defines are reported as absent, never as an error.

``layer_metrics`` turns the spans into per-layer counts and self times: a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPECTRAL_TAGS = ("spectral", "spectral-budget")
BL_TAGS = ("lp", "spectral", "spectral-budget", "degenerate")

# (module, attribute, span name) for the module-level functions
FUNCTIONS = [
    ("statemetrics", "bl", "statemetrics.bl"),
    ("statemetrics", "bl_lp_oracle", "statemetrics.bl_lp_oracle"),
    ("statemetrics", "mk", "statemetrics.mk"),
    ("lipschitz", "polyhedral_rows", "lipschitz.polyhedral_rows"),
    ("tunnels", "extent", "tunnels.extent"),
    ("tunnels", "compose", "tunnels.compose"),
    ("tunnels", "lift", "tunnels.lift"),
    ("tunnels", "target_set_sample", "tunnels.target_set_sample"),
    ("tunnels", "compact_to_tunnel", "tunnels.compact_to_tunnel"),
    ("tunnels", "tunnel_to_compact", "tunnels.tunnel_to_compact"),
    ("crossedprod", "constants", "crossedprod.constants"),
    ("crossedprod", "build_tunnel_p", "crossedprod.build_tunnel_p"),
    ("crossedprod", "verify_chain", "crossedprod.verify_chain"),
    ("crossedprod", "extent_certified", "crossedprod.extent_certified"),
    ("classical", "gh_pointed", "classical.gh_pointed"),
    ("classical", "build_bridge", "classical.build_bridge"),
]

# (module, class, method, span name)
METHODS = [
    ("opcore", "Operator", "__matmul__", "opcore.matmul"),
    ("statemetrics", "SpectralProblem", "lower_bound", "statemetrics.lower_bound"),
    ("statemetrics", "SpectralProblem", "upper_bound", "statemetrics.upper_bound"),
]


class Recorder:
    """Spans and result counters, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = Counter()
        self.ratios = []     # width / gap of spectral bl brackets
        self.enabled = False

    @contextmanager
    def active(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def wrap(self, fn, name, on_result=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            rec = [span_name, self.stack[-1] if self.stack else -1,
                   perf_counter(), 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper


def _opnorm_name(rec, opcore):
    """Classify an opnorm call from its input, as opnorm itself would route it."""
    cutoff = getattr(opcore, "DENSE_CUTOFF", 600)

    def name(args):
        a = args[0]
        if getattr(a, "dense", None) is not None or a.dim <= cutoff:
            return "opcore.opnorm.dense"
        if len(getattr(a, "bands", None) or ()) == 1:
            rec.counts["opcore.opnorm.lanczos.single_band.calls"] += 1
        return "opcore.opnorm.lanczos"
    return name


def _bl_hook(rec, bl, default_gap):
    sig = inspect.signature(bl)

    def hook(args, kwargs, out):
        tag = getattr(out, "method", "")
        rec.counts[f"statemetrics.bl.{tag}.calls"] += 1
        if tag in SPECTRAL_TAGS:
            rec.counts["statemetrics.spectral.iterations"] += int(out.iterations)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            gap = bound.arguments.get("gap", default_gap)
            rec.ratios.append((out.upper - out.lower) / gap)
    return hook


def _mk_hook(rec):
    def hook(args, kwargs, out):
        value, history = out
        rec.counts["statemetrics.mk.boxes"] += len(history)
        rec.counts["statemetrics.mk.diverged"] += int(math.isinf(value))
    return hook


def _chain_hook(rec):
    def hook(args, kwargs, out):
        items = out.get("items", [])
        rec.counts["crossedprod.verify_chain.items"] += len(items)
        rec.counts["crossedprod.verify_chain.failed_items"] += sum(
            1 for it in items if not it.get("pass"))
    return hook


def _window_hook(rec):
    def hook(args, kwargs, out):
        dim = out.window.dim
        rec.counts["crossedprod.window_dim"] = max(
            rec.counts["crossedprod.window_dim"], dim)
    return hook


def _rebind(orig, wrapper, undo):
    """Point every loaded qproxim module's reference to ``orig`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qproxim" or modname.startswith("qproxim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)


@contextmanager
def instrument(rec):
    """Wrap the layer boundaries for the duration of the block."""
    undo, absent = [], []
    mods = {}
    for name in ("opcore", "statemetrics", "lipschitz", "tunnels",
                 "crossedprod", "classical"):
        try:
            mods[name] = importlib.import_module(f"qproxim.{name}")
        except ImportError:
            absent.append(f"qproxim.{name}")
    try:
        opcore = mods.get("opcore")
        if opcore is not None and hasattr(opcore, "opnorm"):
            _rebind(opcore.opnorm, rec.wrap(opcore.opnorm, _opnorm_name(rec, opcore)), undo)
        else:
            absent.append("opcore.opnorm")
        for modname, attr, span in FUNCTIONS:
            mod = mods.get(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                absent.append(f"{modname}.{attr}")
                continue
            hook = None
            if span == "statemetrics.bl":
                hook = _bl_hook(rec, fn, getattr(mod, "DEFAULT_GAP", 1e-4))
            elif span == "statemetrics.mk":
                hook = _mk_hook(rec)
            elif span == "crossedprod.verify_chain":
                hook = _chain_hook(rec)
            elif span == "crossedprod.build_tunnel_p":
                hook = _window_hook(rec)
            _rebind(fn, rec.wrap(fn, span, hook), undo)
        for modname, clsname, meth, span in METHODS:
            cls = getattr(mods.get(modname), clsname, None)
            if cls is None or meth not in vars(cls):
                absent.append(f"{modname}.{clsname}.{meth}")
                continue
            undo.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, rec.wrap(vars(cls)[meth], span))
        lipschitz = mods.get("lipschitz")
        for cls in list(vars(lipschitz).values()) if lipschitz else ():
            if not isinstance(cls, type) or cls.__module__ != lipschitz.__name__:
                continue
            for meth in ("eval", "maps"):
                if meth in vars(cls):
                    undo.append((cls, meth, vars(cls)[meth]))
                    setattr(cls, meth, rec.wrap(vars(cls)[meth], f"lipschitz.{meth}"))
        yield absent
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# spans reported as <name>.calls and <name>.s (self time)
LAYERS = (
    "opcore.opnorm.dense", "opcore.opnorm.lanczos", "opcore.matmul",
    "statemetrics.bl", "statemetrics.lower_bound", "statemetrics.upper_bound",
    "statemetrics.bl_lp_oracle", "statemetrics.mk",
    "lipschitz.eval", "lipschitz.maps", "lipschitz.polyhedral_rows",
    "tunnels.compose", "tunnels.lift", "tunnels.target_set_sample",
    "tunnels.compact_to_tunnel", "tunnels.tunnel_to_compact",
    "classical.gh_pointed", "classical.build_bridge",
)
COUNTS = (
    "opcore.opnorm.lanczos.single_band.calls", "statemetrics.spectral.iterations",
    "statemetrics.mk.boxes", "statemetrics.mk.diverged",
    "crossedprod.verify_chain.items", "crossedprod.verify_chain.failed_items",
    "crossedprod.window_dim",
) + tuple(f"statemetrics.bl.{tag}.calls" for tag in BL_TAGS)
CROSSED_STAGES = ("constants", "build_tunnel_p", "verify_chain", "extent_certified")


def unit(metric):
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if ".width_over_gap." in metric:
        return "ratio"
    return "count"


def self_times(spans):
    """(duration, self time, direct children) for every span."""
    dur = [end - start for _, _, start, end in spans]
    child_sum = [0.0] * len(spans)
    children = defaultdict(list)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += dur[i]
            children[parent].append(i)
    return dur, [d - c for d, c in zip(dur, child_sum)], children


def layer_metrics(rec):
    """Per-layer metrics of the recorded pass, with the self-time ranking."""
    spans = rec.spans
    dur, selft, children = self_times(spans)
    calls, self_s = Counter(), defaultdict(float)
    for (name, _, _, _), s in zip(spans, selft):
        calls[name] += 1
        self_s[name] += s

    out = {key: rec.counts[key] for key in COUNTS}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = self_s[layer]
    out["statemetrics.bl.second_pass.calls"] = sum(
        1 for i, (name, _, _, _) in enumerate(spans)
        if name == "statemetrics.bl"
        and sum(spans[c][0] == "statemetrics.lower_bound" for c in children[i]) > 1)

    # gh_pointed runs inside operations (build_bridge finds its correspondence
    # with it) and as the untimed reference of the 2 GH check
    in_reference = []
    for name, parent, _, _ in spans:
        in_reference.append(name == "benchmark.reference"
                            or (parent >= 0 and in_reference[parent]))
    ref = [i for i, (name, _, _, _) in enumerate(spans)
           if name == "classical.gh_pointed" and in_reference[i]]
    out["classical.gh_pointed.reference.calls"] = len(ref)
    out["classical.gh_pointed.reference.s"] = sum(selft[i] for i in ref)

    ext = c1 = c2 = 0.0
    for i, (name, _, _, _) in enumerate(spans):
        if name != "tunnels.extent":
            continue
        ext += dur[i]
        c1 += sum(dur[c] for c in children[i] if spans[c][0] == "statemetrics.bl")
        c2 += sum(dur[c] for c in children[i] if spans[c][0] == "statemetrics.mk")
    out["tunnels.extent.calls"] = calls["tunnels.extent"]
    out["tunnels.extent.s"] = ext
    out["tunnels.extent.c1.s"] = c1
    out["tunnels.extent.c2.s"] = c2
    out["tunnels.extent.self.s"] = ext - c1 - c2
    for stage in CROSSED_STAGES:
        out[f"crossedprod.{stage}.s"] = self_s[f"crossedprod.{stage}"]

    ratios = sorted(rec.ratios)
    out["statemetrics.bl.width_over_gap.p50"] = statistics.median(ratios) if ratios else 0.0
    out["statemetrics.bl.width_over_gap.max"] = ratios[-1] if ratios else 0.0

    ranking = sorted(((n, s) for n, s in self_s.items() if s > 0), key=lambda kv: -kv[1])
    return out, ranking
