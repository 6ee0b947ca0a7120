"""Span and count recording around piwb's layer entry points.

The tracer wraps entry points from outside: piwb is not edited. Python
modules bind imported names at import time, so a wrapper replaces the
name in every piwb module that binds the original function, and methods
are replaced on their class. Each wrapper call records one span (name,
start, end, parent) in compact in-memory arrays and updates per-name
call counts and self time (the span minus its child spans). Spans stay
in memory until the timed region ends; `write_spans` then writes them out.

Recursive functions (`substitute`, `hashcons`, `_render`) are not
rebound inside their own module, so a span marks one call across a layer
boundary, not every step of the recursion. A call that re-enters the
span already open on top of the stack (for example `build_lts` calling
`build_lts_multi`) is passed through without a new span.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, module defining the function, attribute, recursive in its module)
FUNCTIONS = [
    ("parser.parse", "piwb.parser", "parse", False),
    ("parser.pretty", "piwb.parser", "pretty", False),
    ("parser.render", "piwb.parser", "_render", True),
    ("syntax.alpha_canonical", "piwb.syntax", "alpha_canonical", False),
    ("syntax.substitute", "piwb.syntax", "substitute", True),
    ("syntax.hashcons", "piwb.syntax", "hashcons", True),
    ("semantics.derive_steps", "piwb.semantics", "derive_steps", False),
    ("lts.build", "piwb.lts", "build_lts", False),
    ("lts.build", "piwb.lts", "build_lts_multi", False),
    ("lts.metrics", "piwb.lts", "depth", False),
    ("lts.metrics", "piwb.lts", "norm", False),
    ("equivalence.refine", "piwb.equivalence", "refine", False),
    ("normalize.stutter_free", "piwb.normalize", "stutter_free", False),
    ("normalize.has_stuttering", "piwb.normalize", "has_stuttering", False),
    ("decompose.find_split", "piwb.decompose", "find_split", False),
    ("decompose.upd_sweep", "piwb.decompose", "upd_sweep", False),
]

# (span name, class, method)
METHODS = [
    ("decompose.class_of", "BehaviorIndex", "class_of"),
    ("decompose.weak_layer", "BehaviorIndex", "_ensure_weak"),
]

# Per-layer metrics reported by a traced run, with their units. The list
# is the `per_layer` section of BENCHMARK.json.
PER_LAYER = [
    ("parser.parse.calls", "count"),
    ("parser.parse.self_s", "s"),
    ("parser.pretty.self_s", "s"),
    ("parser.render.calls", "count"),
    ("parser.render.self_s", "s"),
    ("syntax.alpha_canonical.calls", "count"),
    ("syntax.alpha_canonical.self_s", "s"),
    ("syntax.substitute.calls", "count"),
    ("syntax.substitute.self_s", "s"),
    ("syntax.hashcons.calls", "count"),
    ("syntax.hashcons.self_s", "s"),
    ("syntax.hashcons.table_size", "count"),
    ("semantics.derive_steps.calls", "count"),
    ("semantics.derive_steps.self_s", "s"),
    ("semantics.step_lookups", "count"),
    ("semantics.cache_hit_ratio", "ratio"),
    ("semantics.cache_entries", "count"),
    ("lts.build.calls", "count"),
    ("lts.build.self_s", "s"),
    ("lts.states", "count"),
    ("lts.edges", "count"),
    ("lts.metrics.self_s", "s"),
    ("equivalence.refine.calls", "count"),
    ("equivalence.refine.self_s", "s"),
    ("equivalence.blocks", "count"),
    ("normalize.stutter_free.calls", "count"),
    ("normalize.stutter_free.self_s", "s"),
    ("normalize.has_stuttering.calls", "count"),
    ("normalize.incomplete", "count"),
    ("decompose.enumerate.terms", "count"),
    ("decompose.enumerate.self_s", "s"),
    ("decompose.class_of.calls", "count"),
    ("decompose.class_of.self_s", "s"),
    ("decompose.states_explored", "count"),
    ("decompose.classes_interned", "count"),
    ("decompose.weak_classes", "count"),
    ("decompose.weak_layer.self_s", "s"),
    ("decompose.sweep_strong.s", "s"),
    ("decompose.sweep_weak.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Reported by traced runs of `split` only: they read 0 on the other
# workloads, so they are not in BENCHMARK.json.
SPLIT_LAYER = [
    ("decompose.find_split.calls", "count"),
    ("decompose.find_split.self_s", "s"),
    ("decompose.split.classified", "count"),
    ("decompose.split.found", "count"),
]


class Tracer:
    """Records spans and counts while installed; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, name id, child time]
        self._indices: list = []  # BehaviorIndex objects not yet harvested

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, value: float):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, on_exit=None):
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter
        sname, sstart, send, sparent = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1][0] if stack else -1)
            send.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            error = None
            start = clock()
            sstart.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                send[idx] = end
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                if on_exit is not None:
                    on_exit(dur, args, kwargs, not stack, error)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, genfn):
        """Each resumption of the generator is one span; yields are counted."""
        step = self.wrap(name, next)
        tracer = self

        def wrapper(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                tracer.count(name + ".terms")
                yield item

        wrapper.__wrapped__ = genfn
        return wrapper

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace piwb's entry points with recording wrappers, then restore."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "piwb" or n.startswith("piwb.")) and m is not None]
        decompose = sys.modules["piwb.decompose"]
        semantics = sys.modules["piwb.semantics"]
        syntax = sys.modules["piwb.syntax"]
        restore: list = []

        def rebind(original, wrapper, skip=None):
            for mod in mods:
                if mod is skip:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        def replace(obj, attr, value):
            restore.append((obj, attr, obj.__dict__[attr]))
            setattr(obj, attr, value)

        indices = self._indices
        steps = semantics._steps_cached
        cache = semantics._cache

        def index_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            indices.append(obj)

        def steps_cached(state, u):
            self.count("semantics.step_lookups")
            if (state, u) in cache:
                self.count("semantics.cache_hits")
            return steps(state, u)

        try:
            hooks = self._hooks(decompose, semantics, syntax)
            for name, modname, attr, recursive in FUNCTIONS:
                home = sys.modules[modname]
                original = getattr(home, attr)
                on_result, on_exit = hooks.get(attr, (None, None))
                wrapper = self.wrap(name, original, on_result, on_exit)
                rebind(original, wrapper, skip=home if recursive else None)
            for name, clsname, attr in METHODS:
                cls = getattr(decompose, clsname)
                replace(cls, attr, self.wrap(name, cls.__dict__[attr]))
            init = decompose.BehaviorIndex.__dict__["__init__"]
            replace(decompose.BehaviorIndex, "__init__", index_init)
            tu_cls = decompose.TermUniverse
            replace(tu_cls, "enumerate",
                    self.wrap_generator("decompose.enumerate",
                                        tu_cls.__dict__["enumerate"]))
            rebind(steps, steps_cached)
            yield self
        finally:
            self.harvest(semantics, syntax)
            for obj, attr, value in reversed(restore):
                setattr(obj, attr, value)

    def _hooks(self, decompose, semantics, syntax):
        tracer = self

        def lts_built(l):
            tracer.count("lts.states", len(l.states))
            tracer.count("lts.edges", sum(len(es) for es in l.edges_from))

        def refined(part):
            tracer.count("equivalence.blocks", len(part.blocks))

        def split_done(got):
            if isinstance(got, decompose.SplitFound):
                tracer.count("decompose.split.found")

        def harvest_on_exit(dur, args, kwargs, outermost, error):
            if outermost:
                tracer.harvest(semantics, syntax)

        def sweep_exit(dur, args, kwargs, outermost, error):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "strong")
            tracer.count(f"decompose.sweep_{mode}.s", dur)
            harvest_on_exit(dur, args, kwargs, outermost, error)

        incomplete = sys.modules["piwb.errors"].NormalizationIncomplete

        def stutter_exit(dur, args, kwargs, outermost, error):
            if isinstance(error, incomplete):
                tracer.count("normalize.incomplete")

        return {
            "build_lts": (lts_built, None),
            "build_lts_multi": (lts_built, None),
            "refine": (refined, None),
            "find_split": (split_done, harvest_on_exit),
            "upd_sweep": (None, sweep_exit),
            "stutter_free": (None, stutter_exit),
        }

    def harvest(self, semantics, syntax):
        """Fold finished behaviour indices and table sizes into the counts."""
        for index in self._indices:
            self.count("decompose.states_explored", len(index._class_of))
            self.count("decompose.classes_interned", len(index.signatures))
            self.count("decompose.weak_classes", len(index._weak_sigs))
        self._indices.clear()
        self.maximum("syntax.hashcons.table_size", len(syntax._hashcons_table))
        self.maximum("semantics.cache_entries", len(semantics._cache))

    # -- results ------------------------------------------------------------------

    def split_classified(self) -> int:
        """class_of calls made directly by find_split (candidates and pairs)."""
        split = self._ids.get("decompose.find_split")
        cls = self._ids.get("decompose.class_of")
        if split is None or cls is None:
            return 0
        parent, name = self.span_parent, self.span_name
        return sum(
            1 for i in range(len(name))
            if name[i] == cls and parent[i] >= 0 and name[parent[i]] == split
        )

    def layer_values(self, listed) -> dict[str, float]:
        """The `listed` (name, unit) metrics, except the run's `trace.*`."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".self_s"] = self.self_s[nid]
        out.update(self.counts)
        keys = [key for key, _unit in listed if not key.startswith("trace.")]
        if "decompose.split.classified" in keys:
            out["decompose.split.classified"] = self.split_classified()
        lookups = self.counts.get("semantics.step_lookups", 0)
        hits = self.counts.get("semantics.cache_hits", 0)
        out["semantics.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        return {key: out.get(key, 0) for key in keys}

    def self_time_total(self) -> float:
        return sum(self.self_s)

    def write_spans(self, path):
        """Spans as gzip'd TSV: name, start, end, parent span index."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
