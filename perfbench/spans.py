"""Traced runs: spans around the calls into each module, and per-layer metrics.

The modules import each other's functions by name (``matroids`` calls
``check_square`` through its own global, ``abgroups`` calls
``smith_normal_form`` through its own, ...), so a wrapper is installed on
every caller's name rather than on the function itself.  The functions
behind ``lru_cache`` keep their caches; cache misses are read from
``cache_info`` around each call.

Spans live in flat arrays (name, parent, start, end) until the batch is
done.  A span's self time is its duration minus the durations of its
children; the ``*_s`` layer metrics are self times, so over a traced
batch they add up to at most its wall time (the rest is benchmark code
between calls into the library, recorded in the ``bench.job`` spans).
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from collections import Counter
from itertools import chain

# (span name, caller module, attribute): every name under which a caller
# reaches a layer function.
TARGETS = (
    ("intmat.snf", "abgroups", "smith_normal_form"),
    ("intmat.snf", "surjections", "smith_normal_form"),
    ("intmat.snf", "duality", "smith_normal_form"),
    ("intmat.det", "intmat", "det"),
    ("abgroups.cokernel", "matroids", "cokernel"),
    ("abgroups.cokernel", "surjections", "cokernel"),
    ("abgroups.localize", "matroids", "localize"),
    ("abgroups.localize", "surjections", "localize"),
    ("abgroups.factorize", "abgroups", "factorize"),
    ("abgroups.factorize", "cli", "factorize"),
    ("abgroups.support_primes", "matroids", "support_primes"),
    ("abgroups.support_primes", "surjections", "support_primes"),
    ("abgroups.canonicalize", "abgroups", "canonicalize"),
    ("abgroups.canonicalize", "jsonio", "canonicalize"),
    ("abgroups.canonicalize", "tutte", "canonicalize"),
    ("surjections.square", "matroids", "check_square"),
    ("surjections.m1", "matroids", "check_m1"),
    ("surjections.sequence", "surjections", "square_failure_dvr"),
    ("surjections.sequence", "surjections", "m1_failure_dvr"),
    ("matroids.from_realization", "matroids", "from_realization"),
    ("matroids.from_realization", "cli", "from_realization"),
    ("matroids.is_matroid", "matroids", "is_matroid"),
    ("matroids.is_matroid", "cli", "is_matroid"),
    ("qam.to_qam", "qam", "to_qam"),
    ("qam.to_qam", "cli", "to_qam"),
    ("qam.check_axioms", "qam", "check_axioms"),
    ("qam.check_axioms", "cli", "check_axioms"),
    ("tropical.heights", "tropical", "heights"),
    ("tropical.heights", "cli", "heights"),
    ("tropical.three_term", "tropical", "three_term_check"),
    ("tropical.single_exchange", "tropical", "single_exchange_check"),
    ("tropical.single_exchange", "cli", "single_exchange_check"),
    ("tropical.dressian", "tropical", "dressian_check"),
    ("tropical.dressian", "cli", "dressian_check"),
    ("tropical.valuated", "tropical", "valuated_matroid_check"),
    ("tropical.valuated", "cli", "valuated_matroid_check"),
    ("tropical.flag_scan", "tropical", "flag_pluecker_scan"),
    ("tropical.flag_scan", "cli", "flag_pluecker_scan"),
    ("duality.dual", "duality", "dual"),
    ("duality.dual", "tutte", "dual"),
    ("duality.dual", "cli", "dual"),
    ("duality.gale_dual", "duality", "gale_dual"),
    ("duality.gale_dual", "cli", "gale_dual"),
    ("tutte.tutte_class", "tutte", "tutte_class"),
    ("tutte.tutte_class", "cli", "tutte_class"),
    ("tutte.specialize", "tutte", "_specialize"),
    ("jsonio.load", "cli", "load_path"),
    ("jsonio.parse", "cli", "parse_matroid_document"),
    ("jsonio.parse", "cli", "parse_realization_document"),
    ("jsonio.emit", "cli", "emit_matroid_document"),
    ("jsonio.emit", "cli", "emit_realization_document"),
    ("jsonio.emit", "cli", "dumps"),
    ("cli.main", "cli", "main"),
)

# per-layer metric -> (unit, better); the order is the report order
METRICS = {
    "intmat.snf_calls": ("count", "lower"),
    "intmat.snf_s": ("s", "lower"),
    "intmat.snf_max_bits": ("bits", "lower"),
    "intmat.det_calls": ("count", "lower"),
    "abgroups.cokernel_calls": ("count", "lower"),
    "abgroups.cokernel_s": ("s", "lower"),
    "abgroups.localize_calls": ("count", "lower"),
    "abgroups.localize_hit_ratio": ("ratio", "higher"),
    "abgroups.factorize_calls": ("count", "lower"),
    "abgroups.factorize_s": ("s", "lower"),
    "abgroups.support_primes_s": ("s", "lower"),
    "abgroups.canonicalize_s": ("s", "lower"),
    "surjections.square_calls": ("count", "lower"),
    "surjections.square_distinct": ("count", "lower"),
    "surjections.square_s": ("s", "lower"),
    "surjections.m1_calls": ("count", "lower"),
    "surjections.m1_distinct": ("count", "lower"),
    "surjections.m1_s": ("s", "lower"),
    "surjections.sequence_s": ("s", "lower"),
    "surjections.fail.rank-drop": ("count", "lower"),
    "surjections.fail.M1-local": ("count", "lower"),
    "surjections.fail.L2a": ("count", "lower"),
    "surjections.fail.L2b": ("count", "lower"),
    "surjections.fail.no-witness-pair": ("count", "lower"),
    "surjections.fail.error": ("count", "lower"),
    "matroids.from_realization_s": ("s", "lower"),
    "matroids.is_matroid_s": ("s", "lower"),
    "matroids.squares_per_distinct": ("ratio", "lower"),
    "matroids.distinct_entries": ("count", "lower"),
    "qam.to_qam_s": ("s", "lower"),
    "qam.check_axioms_s": ("s", "lower"),
    "tropical.heights_s": ("s", "lower"),
    "tropical.three_term_s": ("s", "lower"),
    "tropical.single_exchange_s": ("s", "lower"),
    "tropical.dressian_s": ("s", "lower"),
    "tropical.valuated_s": ("s", "lower"),
    "tropical.flag_scan_s": ("s", "lower"),
    "tropical.flag_relations": ("count", "lower"),
    "duality.dual_s": ("s", "lower"),
    "duality.gale_dual_s": ("s", "lower"),
    "tutte.tutte_class_s": ("s", "lower"),
    "tutte.specialize_s": ("s", "lower"),
    "jsonio.load_s": ("s", "lower"),
    "jsonio.parse_s": ("s", "lower"),
    "jsonio.emit_s": ("s", "lower"),
    "jsonio.bytes_in": ("bytes", "lower"),
    "jsonio.bytes_out": ("bytes", "lower"),
    "cli.start_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly between runs of one seed
EXACT = tuple(k for k in METRICS if k.endswith(("_calls", "_distinct", "_bits",
                                                 "_relations", "_entries"))
              or k.startswith(("surjections.fail.", "jsonio.bytes_")))

# verdict kinds of failed square and M1 decisions; "error" counts the
# decisions that raised (the witness search out of budget, say)
FAIL_KINDS = ("rank-drop", "M1-local", "L2a", "L2b", "no-witness-pair", "error")


def cache_counts() -> dict:
    """Call and miss counts of the library's own caches (no tracing needed)."""
    from modmatroid import abgroups, surjections

    def info(fn):  # through a traced wrapper, if one is installed
        return getattr(fn, "untraced", fn).cache_info()

    sq = info(surjections.check_square)
    m1 = info(surjections.check_m1)
    loc = info(abgroups.localize)
    fac = info(abgroups.factorize)
    return {
        "surjections.square_calls": sq.hits + sq.misses,
        "surjections.square_distinct": sq.misses,
        "surjections.m1_calls": m1.hits + m1.misses,
        "surjections.m1_distinct": m1.misses,
        "abgroups.localize_calls": loc.hits + loc.misses,
        "abgroups.localize_hits": loc.hits,
        "abgroups.factorize_calls": fac.hits + fac.misses,
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts: Counter = Counter()

    def span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` inside a span; ``before(args)`` and ``after(args, result,
        token)`` run around the span, in the caller's time.  ``after`` runs
        also when ``fn`` raises, with the exception as ``result``."""
        sid = self.span_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before else None
            idx = len(start)
            name_of.append(sid)
            parent.append(self.current)
            end.append(0.0)
            self.current = idx
            start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                result = exc
                raise
            finally:
                end[idx] = clock()
                self.current = parent[idx]
                if after:
                    after(args, result, token)

        traced.untraced = fn
        return traced

    def job(self, fn):
        """The root span of one job."""
        return self.wrap(fn, "bench.job")()

    def install(self):
        mods = {}
        for name, module, attr in TARGETS:
            mod = mods.setdefault(module, importlib.import_module(f"modmatroid.{module}"))
            fn = getattr(mod, attr)
            if name == "tropical.flag_scan":
                fn = self._counting_sink(fn)
            setattr(mod, attr, self.wrap(fn, name, *self._hooks(name, fn)))
        self.baseline = cache_counts()

    def _counting_sink(self, scan):
        counts = self.counts

        def counted(h, sink=None):
            def count(line):
                counts["tropical.flag_relations"] += 1
                if sink is not None:
                    sink(line)
            return scan(h, count)

        return counted

    def _hooks(self, name: str, fn):
        counts = self.counts
        if name in ("surjections.square", "surjections.m1"):
            info = fn.cache_info
            key = name + "_distinct"

            def after(args, verdict, misses):
                # lru_cache counts the miss before it calls, so a raising
                # decision is still one distinct quadruple
                if info().misses != misses:
                    counts[key] += 1
                    if isinstance(verdict, BaseException):
                        counts["surjections.fail.error"] += 1
                    elif not verdict.ok:
                        counts["surjections.fail." + verdict.kind] += 1

            return (lambda args: info().misses), after
        if name == "intmat.snf":
            def before(args):
                bits = max(map(abs, chain.from_iterable(args[0])), default=0).bit_length()
                if bits > counts["intmat.snf_max_bits"]:
                    counts["intmat.snf_max_bits"] = bits
            return before, None
        if name == "matroids.is_matroid":
            def before(args):
                counts["matroids.distinct_entries"] += len(set(args[0].table))
            return before, None
        if name == "jsonio.load":
            def before(args):
                if args[0] != "-":
                    counts["jsonio.bytes_in"] += os.path.getsize(args[0])
            return before, None
        if name == "jsonio.emit" and fn.__name__ == "dumps":
            def after(args, text, token):
                if isinstance(text, str):
                    counts["jsonio.bytes_out"] += len(text.encode("utf-8"))
            return None, after
        return None, None

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of everything recorded since ``install``."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            sid = self.name_of[i]
            calls[sid] += 1
            self_s[sid] += end[i] - start[i] - child[i]
        by_name = {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

        def c(name):
            return by_name.get(name, (0, 0.0))[0]

        def s(name):
            return by_name.get(name, (0, 0.0))[1]

        now = cache_counts()
        hits = now["abgroups.localize_hits"] - self.baseline["abgroups.localize_hits"]
        loc_calls = now["abgroups.localize_calls"] - self.baseline["abgroups.localize_calls"]
        sq, sq_distinct = c("surjections.square"), self.counts["surjections.square_distinct"]
        out = {
            "intmat.snf_calls": c("intmat.snf"),
            "intmat.snf_s": s("intmat.snf"),
            "intmat.snf_max_bits": self.counts["intmat.snf_max_bits"],
            "intmat.det_calls": c("intmat.det"),
            "abgroups.cokernel_calls": c("abgroups.cokernel"),
            "abgroups.cokernel_s": s("abgroups.cokernel"),
            "abgroups.localize_calls": c("abgroups.localize"),
            "abgroups.localize_hit_ratio": hits / loc_calls if loc_calls else 0.0,
            "abgroups.factorize_calls": c("abgroups.factorize"),
            "abgroups.factorize_s": s("abgroups.factorize"),
            "abgroups.support_primes_s": s("abgroups.support_primes"),
            "abgroups.canonicalize_s": s("abgroups.canonicalize"),
            "surjections.square_calls": sq,
            "surjections.square_distinct": sq_distinct,
            "surjections.square_s": s("surjections.square"),
            "surjections.m1_calls": c("surjections.m1"),
            "surjections.m1_distinct": self.counts["surjections.m1_distinct"],
            "surjections.m1_s": s("surjections.m1"),
            "surjections.sequence_s": s("surjections.sequence"),
        }
        for kind in FAIL_KINDS:
            out["surjections.fail." + kind] = self.counts["surjections.fail." + kind]
        out.update({
            "matroids.from_realization_s": s("matroids.from_realization"),
            "matroids.is_matroid_s": s("matroids.is_matroid"),
            "matroids.squares_per_distinct": sq / sq_distinct if sq_distinct else 0.0,
            "matroids.distinct_entries": self.counts["matroids.distinct_entries"],
            "qam.to_qam_s": s("qam.to_qam"),
            "qam.check_axioms_s": s("qam.check_axioms"),
            "tropical.heights_s": s("tropical.heights"),
            "tropical.three_term_s": s("tropical.three_term"),
            "tropical.single_exchange_s": s("tropical.single_exchange"),
            "tropical.dressian_s": s("tropical.dressian"),
            "tropical.valuated_s": s("tropical.valuated"),
            "tropical.flag_scan_s": s("tropical.flag_scan"),
            "tropical.flag_relations": self.counts["tropical.flag_relations"],
            "duality.dual_s": s("duality.dual"),
            "duality.gale_dual_s": s("duality.gale_dual"),
            "tutte.tutte_class_s": s("tutte.tutte_class"),
            "tutte.specialize_s": s("tutte.specialize"),
            "jsonio.load_s": s("jsonio.load"),
            "jsonio.parse_s": s("jsonio.parse"),
            "jsonio.emit_s": s("jsonio.emit"),
            "jsonio.bytes_in": self.counts["jsonio.bytes_in"],
            "jsonio.bytes_out": self.counts["jsonio.bytes_out"],
            "cli.main_s": s("cli.main"),
            "trace.wall_s": wall_s,
            "trace.self_sum_s": sum(self_s.values()),
        })
        self.by_name = by_name
        return out

    def write(self, path: str):
        """Spans aggregated by (parent name, name), plus every job's root span."""
        edges: dict = {}
        names = self.names
        for i in range(len(self.start)):
            p = self.parent[i]
            key = (names[self.name_of[p]] if p >= 0 else "", names[self.name_of[i]])
            calls, total = edges.get(key, (0, 0.0))
            edges[key] = (calls + 1, total + self.end[i] - self.start[i])
        doc = {
            "spans": len(self.start),
            "edges": [{"parent": a, "name": b, "calls": n, "total_s": t}
                      for (a, b), (n, t) in sorted(edges.items())],
            "self": {k: {"calls": n, "self_s": s} for k, (n, s) in sorted(self.by_name.items())},
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
