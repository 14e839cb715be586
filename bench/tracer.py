"""Per-layer spans recorded from outside the library.

``Tracer.installed()`` replaces every binding of every public function of
the ``words``, ``complexity``, ``contfrac``, ``powers`` and ``checks``
modules, and ``cli.main``, with a timing wrapper, and restores the
originals on exit.  The package copies names across modules with
``from .x import y`` (``powers`` holds its own ``characteristic_prefix``,
``checks`` its own ``prefix_of``), so each module namespace is patched,
not just the defining one.  Two methods are wrapped as well:
``Morphism.apply_raw``, where morphic generation spends its time, and
``ContinuedFraction.convergent``, which is counted but not timed because
it runs about half a million times per pass.

Each thread keeps its own span stack, so the worker threads of
``profile --jobs 2`` record their own spans; ``cli.main`` then counts the
time it waits on them as its own.  A span's self time is its duration
minus the time covered by its child spans.
"""

import contextlib
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("words", "complexity", "contfrac", "powers", "checks", "cli")
KERNELS = ("abelian_profile", "subword_profile", "balance_per_length")

# The per-layer metrics the benchmark reports, as named in BENCHMARK.json.
WORDS_FNS = ("prefix_of", "fixed_point", "apply_raw", "characteristic_prefix",
             "hubert_ternary", "champernowne_prefix", "max_complexity_prefix")
CONTFRAC_FNS = ("floor_scaled", "compare_with_rational", "affine_sign",
                "frac_less_than", "floor_range")
POWERS_FNS = ("sturmian_power_at", "sturmian_period_pair", "vdw_power_search",
              "min_abelian_period", "verify_abelian_power")
METRICS = (
    [f"words.{f}.{s}" for f in WORDS_FNS for s in ("calls", "self_s")]
    + ["words.symbols", "words.msym_per_s"]
    + [f"complexity.{f}.{s}" for f in KERNELS
       for s in ("calls", "self_s", "windows", "windows_per_s")]
    + ["complexity.profile.self_s", "complexity.parikh.calls",
       "complexity.parikh.self_s", "complexity.parikh_classes.self_s"]
    + [f"contfrac.{f}.{s}" for f in CONTFRAC_FNS for s in ("calls", "self_s")]
    + ["contfrac.convergent.calls", "contfrac.convergent.max_index"]
    + [f"powers.{f}.{s}" for f in POWERS_FNS for s in ("calls", "self_s")]
    + ["powers.verify_abelian_power.ok_ratio",
       "powers.sturmian_period_pair.distinct_ratio"]
    + ["checks.tm_profile_check.self_s", "checks.rauzy_constant3_check.self_s"]
    + ["cli.main.calls", "cli.main.self_s", "cli.stdout_bytes"]
    + ["trace.overhead_ratio"]
)


def _unit(name):
    if name.endswith("windows_per_s"):
        return "1/s"
    if name.endswith("msym_per_s"):
        return "Msym/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in METRICS}


def _word_length(w):
    return len(w.symbols) if hasattr(w, "symbols") else len(w)


class Tracer:
    """Collects spans and counters for the passes run while installed."""

    def __init__(self, package):
        self._package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats = defaultdict(int)
        self.max_index = 0
        self.period_pairs = set()

    def add(self, key, amount):
        with self._lock:
            self.stats[key] += amount

    # -- wrappers ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, layer, name, fn):
        key = f"{layer}.{name}"
        on_return = self._hook(layer, name, fn)

        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append([layer, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    self.stats[key + ".calls"] += 1
                    self.stats[key + ".self_s"] += dt - child
            if on_return is not None:
                on_return(stack, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook(self, layer, name, fn):
        """Counter update run after a call returns, or None."""
        if layer == "words":
            prefix_type = self._package.words.WordPrefix

            def symbols(stack, args, kwargs, result):
                # count at layer entry only, and only generated prefixes
                if isinstance(result, prefix_type) and (
                        not stack or stack[-1][0] != "words"):
                    self.add("words.symbols", len(result))
            return symbols
        if layer == "complexity" and name in KERNELS:
            signature = inspect.signature(fn)

            def windows(stack, args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                L = _word_length(a["w"])
                count = sum(L - n + 1 for n in range(a["n_min"], a["n_max"] + 1))
                self.add(f"complexity.{name}.windows", count)
            return windows
        if name == "verify_abelian_power":
            return lambda stack, args, kwargs, ok: self.add(
                "powers.verify_abelian_power.ok", bool(ok))
        if name == "sturmian_period_pair":
            def distinct(stack, args, kwargs, result):
                alpha = args[0]
                with self._lock:
                    self.period_pairs.add((alpha.preperiod, alpha.period)
                                          + args[1:] + tuple(kwargs.items()))
            return distinct
        return None

    def _counted_convergent(self, fn):
        def convergent(cf, n):
            with self._lock:
                self.stats["contfrac.convergent.calls"] += 1
                if n > self.max_index:
                    self.max_index = n
            return fn(cf, n)
        convergent.__wrapped__ = fn
        return convergent

    # -- installation ------------------------------------------------------

    def _targets(self):
        """Map id(original function) -> wrapper for every traced function."""
        pkg = self._package
        targets = {}
        for layer in LAYERS:
            module = getattr(pkg, layer)
            names = ["main"] if layer == "cli" else module.__all__
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets[id(fn)] = self._span(layer, name, fn)
        return targets

    @contextlib.contextmanager
    def installed(self):
        pkg = self._package
        targets = self._targets()
        morphism = pkg.words.Morphism
        cf = pkg.contfrac.ContinuedFraction
        patches = [(morphism, "apply_raw", morphism.apply_raw,
                    self._span("words", "apply_raw", morphism.apply_raw)),
                   (cf, "convergent", cf.convergent,
                    self._counted_convergent(cf.convergent))]
        for module in [pkg] + [getattr(pkg, layer) for layer in LAYERS]:
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    patches.append((module, attr, value, targets[id(value)]))
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """Raw per-function stats and the derived per-layer metrics."""
        with self._lock:
            raw = dict(self.stats)
            raw["contfrac.convergent.max_index"] = self.max_index
            pairs = len(self.period_pairs)
        metrics = {name: raw.get(name, 0) for name in METRICS}
        words_busy = sum(v for k, v in raw.items()
                         if k.startswith("words.") and k.endswith(".self_s"))
        metrics["words.msym_per_s"] = _ratio(raw.get("words.symbols", 0),
                                             words_busy * 1e6)
        for kernel in KERNELS:
            key = f"complexity.{kernel}"
            metrics[key + ".windows_per_s"] = _ratio(
                raw.get(key + ".windows", 0), raw.get(key + ".self_s", 0))
        verify = "powers.verify_abelian_power"
        metrics[verify + ".ok_ratio"] = _ratio(
            raw.get(verify + ".ok", 0), raw.get(verify + ".calls", 0))
        metrics["powers.sturmian_period_pair.distinct_ratio"] = _ratio(
            pairs, raw.get("powers.sturmian_period_pair.calls", 0))
        return raw, metrics


def _ratio(a, b):
    return a / b if b else 0.0


def self_shares(raw):
    """Each span's and each layer's share of the summed self time.

    Spans of ``profile --jobs 2`` worker threads overlap in wall time, and
    ``cli.main`` counts its wait on them as self time, so shares are taken
    of the summed self time, not of the pass's wall time.
    """
    spans = {k[:-len(".self_s")]: v for k, v in raw.items()
             if k.endswith(".self_s")}
    total = sum(spans.values()) or 1.0
    layers = {layer: 0.0 for layer in LAYERS}
    for name, value in spans.items():
        layers[name.split(".")[0]] += value / total
    return layers, {name: value / total for name, value in spans.items()}
