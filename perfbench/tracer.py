"""Span tracing of the program's layers from outside its source.

`Tracer.install` wraps the public functions listed in `TARGETS` by
rebinding every name that refers to them in the loaded ``orderzeta.*``
module namespaces (methods are rebound on their class); `uninstall` puts
the originals back.  Each call records a span (name, start, end, parent
span, request id).  Spans stay in memory in flat arrays until `write`;
per-name call counts, self time and total time are folded in as spans
close.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

from verify import sublattice_count

# (module, attribute) of each wrapped callable -> span name.  "Class.method"
# attributes are rebound on the class.
TARGETS = {
    ("orderzeta.arith", "is_prime"): "arith.is_prime",
    ("orderzeta.arith", "multiplicative_order"): "arith.multiplicative_order",
    ("orderzeta.arith", "primes_upto"): "arith.sieve",
    ("orderzeta.arith", "smallest_prime_factors"): "arith.sieve",
    ("orderzeta.series", "poly_gcd"): "series.poly_gcd",
    ("orderzeta.series", "LocalFactor.__init__"): "series.localfactor",
    ("orderzeta.series", "LocalFactor.expand"): "series.localfactor_expand",
    ("orderzeta.series", "euler_expand"): "series.euler_expand",
    ("orderzeta.numfields", "splitting"): "numfields.splitting",
    ("orderzeta.numfields", "dedekind_local_factor"): "numfields.dedekind_local_factor",
    ("orderzeta.localfactors", "rank2_local_factor"): "localfactors.closed_form",
    ("orderzeta.localfactors", "rank2_scheme_local_factor"): "localfactors.closed_form",
    ("orderzeta.localfactors", "cyclic_prime_local_factor"): "localfactors.closed_form",
    ("orderzeta.localfactors", "hey_local_factor"): "localfactors.closed_form",
    ("orderzeta.catalog", "GlobalZeta.local_factor"): "catalog.local_factor",
    ("orderzeta.catalog", "complete_graph_catalog"): "catalog.build",
    ("orderzeta.catalog", "cyclic_prime_catalog"): "catalog.build",
    ("orderzeta.catalog", "global_zeta"): "catalog.build",
    ("orderzeta.catalog", "tensor_global_zeta"): "catalog.build",
    ("orderzeta.catalog", "rank2_over_field"): "catalog.build",
    ("orderzeta.catalog", "expand_global"): "catalog.expand_global",
    ("orderzeta.schemes", "validate"): "schemes.validate",
    ("orderzeta.schemes", "direct_product"): "schemes.direct_product",
    ("orderzeta.orders", "IntegralOrder.__post_init__"): "orders.order_init",
    ("orderzeta.orders", "bad_primes"): "orders.bad_primes",
    ("orderzeta.census", "count_left_ideals"): "census.count_left_ideals",
    ("orderzeta.census", "ideal_series"): "census.ideal_series",
    ("orderzeta.cli", "main"): "cli.main",
}


class Tracer:
    def __init__(self):
        self.names = sorted(set(TARGETS.values()))
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.request_id = -1
        self._patches = []  # (owner, attribute, original)
        self._stack = []    # open spans: [span index, time covered by child spans]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset_totals()

    def reset_totals(self):
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.census = {"hits": 0, "visited": 0, "found": 0}

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id[name]
        stack = self._stack
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(tracer.request_id)
            starts.append(0.0)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                starts[sid] = t0
                ends[sid] = t1
                if stack:
                    stack[-1][1] += dur
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                tracer.total_s[nid] += dur

        return traced

    def _wrap_census(self, fn):
        traced = self._wrap("census.count_left_ideals", fn)
        info = fn.cache_info
        tracer = self

        def census_traced(order, index):
            hits = info().hits
            result = traced(order, index)
            if info().hits > hits:
                tracer.census["hits"] += 1
            elif index > 1:  # index 1 returns before enumerating anything
                tracer.census["visited"] += sublattice_count(order.rank, index)
                tracer.census["found"] += result
            return result

        return census_traced

    # -- patching --------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "orderzeta" or name.startswith("orderzeta."))]
        for (mod_name, attr), span in TARGETS.items():
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = (self._wrap_census(orig) if span == "census.count_left_ideals"
                       else self._wrap(span, orig))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the five raw arrays."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": ["name:H", "parent:i", "request:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_request,
                        self.span_start, self.span_end):
                arr.tofile(fh)
