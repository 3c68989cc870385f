"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public entry points of each module of the
package, in every module namespace and class that binds them, so calls
made inside the package go through the wrappers too.  Each wrapper
keeps, per layer name, a call count and the self time: the call's
duration minus the time of the wrapped calls it made.

Calls of the coarse entry points also leave a span (name, start, end,
span id, parent id, query id) in memory, written out at the end of a
run.  CycNum arithmetic, Phi_n, root tables, gcds and formatting run
millions of times, so for them only the aggregate is kept.
"""

from __future__ import annotations

import sys
import time

# (layer name, module, attribute): a function, a "Class.method", or a
# "Class.method" that is a classmethod.  Aliases such as __rmul__ are
# found by identity.
TARGETS = (
    ("intervals.root_table", "intervals", "root_table"),
    ("cyclotomic.cyclotomic_polynomial", "cyclotomic", "cyclotomic_polynomial"),
    ("cyclotomic.inverse", "cyclotomic", "CycNum.inverse"),
    ("cyclotomic.mul", "cyclotomic", "CycNum.__mul__"),
    ("cyclotomic.add", "cyclotomic", "CycNum.__add__"),
    ("cyclotomic.zeta", "cyclotomic", "CycNum.zeta"),
    ("cyclotomic.house", "cyclotomic", "house"),
    ("cyclotomic.in_PA", "cyclotomic", "in_PA"),
    ("cyclotomic.is_root_of_unity", "cyclotomic", "is_root_of_unity"),
    ("cyclotomic.loxton_decompose", "cyclotomic", "loxton_decompose"),
    ("ratfunc.evaluate", "ratfunc", "evaluate"),
    ("ratfunc.compose", "ratfunc", "compose"),
    ("ratfunc.poly_gcd", "ratfunc", "poly_gcd"),
    ("ratfunc.substitute_poly_laurent", "ratfunc", "substitute_poly_laurent"),
    ("ratfunc.distinct_pole_count", "ratfunc", "distinct_pole_count"),
    ("special.is_special", "special", "is_special"),
    ("witness.witness_search_deg2", "witness", "witness_search_deg2"),
    ("witness.witness_check", "witness", "witness_check"),
    ("avoidance.scan_roots_of_unity", "avoidance", "scan_roots_of_unity"),
    ("avoidance.avoidance_verdict", "avoidance", "avoidance_verdict"),
    ("avoidance.orbit", "avoidance", "orbit"),
    ("parser.parse", "parser", "parse_ratfunc"),
    ("formatting", "formatting", "format_value"),
    ("formatting", "cyclotomic", "HouseResult.to_dict"),
    ("formatting", "cyclotomic", "RootOfUnity.to_dict"),
    ("formatting", "avoidance", "ScanResult.to_dict"),
    ("formatting", "avoidance", "ScanHit.to_dict"),
    ("formatting", "avoidance", "AvoidanceVerdict.to_dict"),
    ("formatting", "avoidance", "OrbitRecord.to_dict"),
    ("formatting", "avoidance", "MonicNormalization.to_dict"),
    ("formatting", "witness", "Witness.to_dict"),
    ("formatting", "witness", "FZReport.to_dict"),
    ("formatting", "witness", "SpecialTermsReport.to_dict"),
    ("cli.main", "cli", "main"),
)
# Names that keep only aggregates (no per-call span).
HOT = {
    "intervals.root_table", "cyclotomic.cyclotomic_polynomial", "cyclotomic.inverse",
    "cyclotomic.mul", "cyclotomic.add", "cyclotomic.zeta", "cyclotomic.house",
    "cyclotomic.is_root_of_unity", "ratfunc.evaluate", "ratfunc.compose",
    "ratfunc.poly_gcd", "ratfunc.substitute_poly_laurent", "formatting",
}
# Calls of the listed layers made inside one call of the key layer.
COUNT_INSIDE = {
    "cyclotomic.in_PA": ("cyclotomic.house",),
    "avoidance.scan_roots_of_unity": ("ratfunc.evaluate",),
    "witness.witness_search_deg2": ("ratfunc.compose", "ratfunc.substitute_poly_laurent"),
}
LRU_LAYERS = ("intervals.root_table", "cyclotomic.cyclotomic_polynomial")
ARITH = {"cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse", "cyclotomic.zeta"}
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.stack: list[list] = []  # active frames: [child_s, span_id, name]
        # Time of CycNum arithmetic, by the nearest calling layer.
        self.arith_under: dict[str, float] = {}
        self.inside: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.query_id = 0
        self._next_span = 0
        self._undo: list = []
        self._lru: dict[str, object] = {}
        self._lru_start: dict[str, tuple[int, int]] = {}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        pc = time.perf_counter
        under = self.arith_under
        if name in ARITH:

            def arith(*a, **k):
                frame = [0.0, None, name]
                stack.append(frame)
                t0 = pc()
                try:
                    return fn(*a, **k)
                finally:
                    dur = pc() - t0
                    stack.pop()
                    caller = stack[-1][2] if stack else "benchmark"
                    if stack:
                        stack[-1][0] += dur
                    if caller not in ARITH:
                        under[caller] = under.get(caller, 0.0) + dur
                    st[0] += 1
                    st[1] += dur - frame[0]

            return self._decorate(name, arith)
        if name in HOT and name not in LRU_LAYERS:

            def hot(*a, **k):
                frame = [0.0, None, name]
                stack.append(frame)
                t0 = pc()
                try:
                    return fn(*a, **k)
                finally:
                    dur = pc() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    st[0] += 1
                    st[1] += dur - frame[0]

            return self._decorate(name, hot)

        inside = COUNT_INSIDE.get(name, ())
        lru = fn if name in LRU_LAYERS else None
        depth = [0]  # recursion depth, so nested cache builds count once

        def traced(*a, **k):
            parent = stack[-1][1] if stack else None
            self._next_span += 1
            frame = [0.0, self._next_span, name]
            before = [self.stats.get(n, (0,))[0] for n in inside]
            outer = depth[0] == 0
            misses = lru.cache_info().misses if lru is not None and outer else 0
            depth[0] += 1
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*a, **k)
            finally:
                t1 = pc()
                dur = t1 - t0
                depth[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st[0] += 1
                st[1] += dur - frame[0]
                for n, b in zip(inside, before):
                    key = f"{name}>{n}"
                    self.inside[key] = self.inside.get(key, 0) + self.stats.get(n, (0,))[0] - b
                if lru is not None and outer and lru.cache_info().misses > misses:
                    key = name + ".build_s"
                    self.counts[key] = self.counts.get(key, 0.0) + dur
                if name not in HOT and len(self.spans) < SPAN_LIMIT:
                    self.spans.append((name, t0, t1, frame[1], parent, self.query_id))

        return self._decorate(name, traced)

    def _decorate(self, name, wrapper):
        """Attach result hooks for the layers that report maxima and counts."""
        if name == "cyclotomic.house":

            def house(*a, **k):
                r = wrapper(*a, **k)
                self.maxima[name] = max(self.maxima.get(name, 0), r.precision_bits)
                return r

            return house
        if name == "cyclotomic.inverse":

            def inverse(x, *a, **k):
                self.maxima[name] = max(self.maxima.get(name, 0), x.n)
                return wrapper(x, *a, **k)

            return inverse
        if name == "cyclotomic.in_PA":

            def in_pa(*a, **k):
                r = wrapper(*a, **k)
                if r == "undecided":
                    self.counts[name + ".undecided"] = self.counts.get(name + ".undecided", 0) + 1
                return r

            return in_pa
        if name == "witness.witness_search_deg2":

            def search(*a, **k):
                r = wrapper(*a, **k)
                if r is not None:
                    self.counts[name + ".found"] = self.counts.get(name + ".found", 0) + 1
                return r

            return search
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = {n: m for n, m in sys.modules.items() if n == "cyclohouse" or n.startswith("cyclohouse.")}
        for name, mod, attr in TARGETS:
            module = pkg.get(f"cyclohouse.{mod}")
            if module is None:  # cyclohouse.cli is loaded only by the CLI
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    w = classmethod(self._wrap(name, raw.__func__))
                    self._set(cls, meth, w)
                    continue
                w = self._wrap(name, raw)
                for alias, val in list(cls.__dict__.items()):
                    if val is raw:
                        self._set(cls, alias, w)
                continue
            orig = getattr(module, attr)
            if name in LRU_LAYERS:
                self._lru[name] = orig
                info = orig.cache_info()
                self._lru_start[name] = (info.hits, info.misses)
            w = self._wrap(name, orig)
            for m in pkg.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, w)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready aggregate; snapshots of several processes merge by ``merge``."""
        lru = {}
        for name, fn in self._lru.items():
            info = fn.cache_info()
            h0, m0 = self._lru_start[name]
            lru[name] = [info.hits - h0, info.misses - m0]
        return {"stats": self.stats, "inside": self.inside, "maxima": self.maxima,
                "counts": self.counts, "lru": lru, "arith_under": self.arith_under}


def merge(snapshots: list[dict]) -> dict:
    out = {"stats": {}, "inside": {}, "maxima": {}, "counts": {}, "lru": {}, "arith_under": {}}
    for snap in snapshots:
        for name, (calls, self_s) in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for section in ("inside", "counts", "arith_under"):
            for key, v in snap[section].items():
                out[section][key] = out[section].get(key, 0) + v
        for key, v in snap["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), v)
        for key, (h, m) in snap["lru"].items():
            acc = out["lru"].setdefault(key, [0, 0])
            acc[0] += h
            acc[1] += m
    return out


CALL_LAYERS = (
    "intervals.root_table", "cyclotomic.cyclotomic_polynomial", "cyclotomic.inverse",
    "cyclotomic.mul", "cyclotomic.add", "cyclotomic.zeta", "cyclotomic.house",
    "cyclotomic.in_PA", "cyclotomic.is_root_of_unity", "cyclotomic.loxton_decompose",
    "ratfunc.evaluate", "ratfunc.compose", "ratfunc.poly_gcd",
    "ratfunc.substitute_poly_laurent", "ratfunc.distinct_pole_count", "special.is_special",
    "witness.witness_search_deg2", "witness.witness_check", "avoidance.scan_roots_of_unity",
    "avoidance.avoidance_verdict", "avoidance.orbit", "parser.parse", "formatting", "cli.main",
)


def layer_metrics(snap: dict, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metric values and units from a merged snapshot."""
    stats, inside, counts = snap["stats"], snap["inside"], snap["counts"]
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    for name in CALL_LAYERS:
        c, s = stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = (c, "count")
        out[f"{name}.self_s"] = (s, "s")
    for name in LRU_LAYERS:
        hits, misses = snap["lru"].get(name, (0, 0))
        out[f"{name}.builds"] = (misses, "count")
        out[f"{name}.build_s"] = (counts.get(name + ".build_s", 0.0), "s")
    hits, misses = snap["lru"].get("intervals.root_table", (0, 0))
    out["intervals.root_table.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["cyclotomic.inverse.max_conductor"] = (snap["maxima"].get("cyclotomic.inverse", 0), "n")
    out["cyclotomic.house.max_precision_bits"] = (snap["maxima"].get("cyclotomic.house", 0), "bits")
    pa = calls("cyclotomic.in_PA")
    out["cyclotomic.in_PA.house_calls_per_call"] = (
        inside.get("cyclotomic.in_PA>cyclotomic.house", 0) / pa if pa else 0.0, "calls/call")
    out["cyclotomic.in_PA.undecided"] = (counts.get("cyclotomic.in_PA.undecided", 0), "count")
    scans = calls("avoidance.scan_roots_of_unity")
    out["avoidance.scan.evaluations"] = (
        inside.get("avoidance.scan_roots_of_unity>ratfunc.evaluate", 0) / scans if scans else 0.0,
        "roots/scan")
    searches = calls("witness.witness_search_deg2")
    expansions = sum(
        inside.get(f"witness.witness_search_deg2>{n}", 0)
        for n in ("ratfunc.compose", "ratfunc.substitute_poly_laurent")
    )
    found = counts.get("witness.witness_search_deg2.found", 0)
    out["witness.expansions_per_search"] = (expansions / searches if searches else 0.0, "calls/search")
    out["witness.found_per_expansion"] = (found / expansions if expansions else 0.0, "ratio")
    self_total = sum(s for _c, s in stats.values())
    out["other.self_s"] = (max(0.0, traced_wall_s - self_total), "s")
    return out


def caller_view(self_s: dict[str, float], arith_under: dict[str, float]) -> dict[str, float]:
    """Self times with CycNum arithmetic charged to the layer that called it."""
    out = {k: v for k, v in self_s.items() if k not in ARITH}
    for caller, t in arith_under.items():
        out[caller] = out.get(caller, 0.0) + t
    return out
