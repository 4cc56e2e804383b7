"""Span tracer that wraps rnsmul's public entry points from outside.

Nothing inside the package changes.  ``Tracer.install`` rebinds each entry
point in every rnsmul module that holds it, which is where its callers look
it up (``modmul`` calls ``bajard_imbert_vec`` by its own global name, the
CLI calls ``bench.run_sweep`` through the module, and so on).  Backend
methods are wrapped per instance, through the ``make_backend`` and
``PseudoMersenne`` factories the package and the benchmark create
backends with.

Each wrapped call is one span: name, start, end and parent.  At both
boundaries the span snapshots the counters of the backend it acts on, so
every span knows its counter delta and its self delta (delta minus the
deltas of its children on the same backend).  Aggregates per (parent, name)
cover every span; the span log keeps the first ``SPAN_LIMIT`` spans so that
memory stays bounded on workloads that make millions of calls.
"""

from __future__ import annotations

from dataclasses import fields
from operator import add, attrgetter, sub
from time import perf_counter_ns

# (module, attribute, takes a backend argument); the span is "<module>.<attr>"
ENTRY_POINTS = (
    ("modmul", "mont_mul", True),
    ("modmul", "mont_pair", False),
    ("modmul", "to_mont", False),
    ("modmul", "from_mont", True),
    ("modmul", "mont_exp", True),
    ("modmul", "context_new", False),
    ("modmul", "MontgomeryContext", False),
    ("baseext", "bajard_imbert_vec", True),
    ("baseext", "st_extend_vec", True),
    ("baseext", "kawamura_extend_vec", True),
    ("baseext", "extend_szabo_tanaka", True),
    ("baseext", "extend_kawamura", True),
    ("baseext", "extend_bajard_imbert", True),
    ("baseext", "extend_shenoy_kumaresan", True),
    ("baseext", "compute_k_hat", True),
    ("baseext", "ExtensionPair", False),
    ("rnscore", "mrs_digits_vec", True),
    ("rnscore", "to_mrs", True),
    ("rnscore", "from_rns_crt", False),
    ("rnscore", "to_rns", False),
    ("rnscore", "mrs_value", False),
    ("rnscore", "rns_elementwise", True),
    ("basegen", "generate_pm_moduli", False),
    ("basegen", "RnsBase", False),
    ("basegen", "build_pm_base", False),
    ("basegen", "build_base", False),
    ("bench", "pick_modulus", False),
    ("bench", "measure_counters", False),
    ("bench", "reports_from_counters", False),
    ("bench", "run_sweep", False),
    ("bench", "write_rows", False),
    ("bench", "write_ratios", False),
    ("costmodel", "estimate", False),
    ("costmodel", "ratio_report", False),
)

BACKEND_METHODS = (
    "vec_mul",
    "vec_add",
    "vec_sub",
    "dot_mod",
    "submul",
    "addmod",
    "submod",
    "mulmod",
    "redmod",
    "pm_reduce",
)

SPAN_LIMIT = 20_000  # spans kept in the log

EXTENSION_SPANS = (
    "baseext.bajard_imbert_vec",
    "baseext.st_extend_vec",
    "baseext.kawamura_extend_vec",
)


class Tracer:
    """Collects spans and their counter deltas in memory."""

    def __init__(self, rns):
        self.rns = rns
        self.counter_fields = tuple(f.name for f in fields(rns.wordmod.OpCounters))
        self._snap = attrgetter(*self.counter_fields)
        self._zero = (0,) * len(self.counter_fields)
        self.names: list = []
        self._ids: dict = {}
        self.stack: list = []
        # (parent name id or -1, name id) -> [calls, total_ns, self_ns, delta, self_delta]
        self.stats: dict = {}
        # (name id, tag) -> [calls, total_ns, delta]
        self.tagged: dict = {}
        # [name id, parent span index, start_ns, end_ns, self_delta or None]
        self.spans: list = []
        self.backends: list = []
        self.phase = 0
        self.pairs: list = []  # (phase, (src moduli, dst moduli))
        self._restore: list = []

    # -- names --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span recording -----------------------------------------------------

    def wrap(self, fn, name, backend=None, scan=False, tag=None, after=None):
        """Return fn recorded as span `name`.

        backend: the backend whose counters the span snapshots; with
        scan=True it is looked up among the positional arguments instead.
        tag(args) adds a second aggregate under (name, tag); after(result)
        sees each return value.
        """
        nid = self.name_id(name)
        stack = self.stack
        clock = perf_counter_ns
        wb = self.rns.wordmod.WordModBackend
        close = self._close

        def traced(*args, **kwargs):
            be = backend
            if scan:
                for a in args:
                    if isinstance(a, wb):
                        be = a
                        break
                else:
                    be = kwargs.get("backend")
            c0 = self._snap(be.counters) if be is not None else None
            if len(self.spans) < SPAN_LIMIT:
                idx = len(self.spans)
                self.spans.append(None)
            else:
                idx = -1
            frame = [nid, 0, be, c0, 0, self._zero, idx]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(frame, t1, tag(args) if tag is not None else None)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, t1, tag):
        nid, t0, be, c0, child_ns, child_delta, idx = frame
        dur = t1 - t0
        delta = self_delta = None
        if be is not None:
            delta = tuple(map(sub, self._snap(be.counters), c0))
            self_delta = tuple(map(sub, delta, child_delta))
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent[4] += dur
            if be is not None and parent[2] is be:
                parent[5] = tuple(map(add, parent[5], delta))
            pnid, pidx = parent[0], parent[6]
        else:
            pnid, pidx = -1, -1
        key = (pnid, nid)
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0, 0, self._zero, self._zero]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child_ns
        if delta is not None:
            s[3] = tuple(map(add, s[3], delta))
            s[4] = tuple(map(add, s[4], self_delta))
        if tag is not None:
            tkey = (nid, tag)
            t = self.tagged.get(tkey)
            if t is None:
                t = self.tagged[tkey] = [0, 0, self._zero]
            t[0] += 1
            t[1] += dur
            t[2] = tuple(map(add, t[2], delta))
        if idx >= 0:
            self.spans[idx] = [nid, pidx, t0, t1, self_delta]

    def reset(self):
        """Drop aggregates and the span log (the phase count stays)."""
        self.stats = {}
        self.tagged = {}
        self.spans = []

    # -- installation -------------------------------------------------------

    def _rebind(self, orig, new):
        for mod in self.rns.modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def wrap_backend(self, be):
        for meth in BACKEND_METHODS:
            fn = getattr(be, meth, None)
            if fn is not None:
                setattr(be, meth, self.wrap(fn, f"wordmod.{meth}", backend=be))
        self.backends.append(be)
        return be

    def install(self):
        """Rebind every entry point; undo with ``uninstall``."""
        rns = self.rns
        tags = {"modmul.mont_mul": lambda a: f"{a[3].kind}.{a[0].variant}"}
        afters = {"baseext.ExtensionPair": self._pair_built}
        for modname, attr, scan in ENTRY_POINTS:
            orig = getattr(getattr(rns, modname), attr)
            name = f"{modname}.{attr}"
            self._rebind(
                orig,
                self.wrap(orig, name, scan=scan, tag=tags.get(name),
                          after=afters.get(name)),
            )
        make_backend = rns.wordmod.make_backend
        pm_cls = rns.wordmod.PseudoMersenne
        self._rebind(make_backend, lambda *a, **k: self.wrap_backend(make_backend(*a, **k)))
        self._rebind(pm_cls, lambda *a, **k: self.wrap_backend(pm_cls(*a, **k)))

    def uninstall(self):
        while self._restore:
            mod, attr, orig = self._restore.pop()
            setattr(mod, attr, orig)

    def _pair_built(self, pair):
        self.pairs.append((self.phase, (pair.src.moduli, pair.dst.moduli)))

    # -- reading ------------------------------------------------------------

    def by_name(self):
        """name -> [calls, total_ns, self_ns, delta, self_delta], summed
        over parents."""
        out = {}
        for (_, nid), s in self.stats.items():
            name = self.names[nid]
            acc = out.get(name)
            if acc is None:
                out[name] = [s[0], s[1], s[2], s[3], s[4]]
            else:
                acc[0] += s[0]
                acc[1] += s[1]
                acc[2] += s[2]
                acc[3] = tuple(map(add, acc[3], s[3]))
                acc[4] = tuple(map(add, acc[4], s[4]))
        return out

    def under(self, name, parent_ok):
        """(calls, total_ns) of spans `name` whose parent's name passes
        parent_ok."""
        nid = self._ids.get(name)
        pids = {i for i, p in enumerate(self.names) if parent_ok(p)}
        calls = total = 0
        for (pnid, snid), s in self.stats.items():
            if snid == nid and pnid in pids:
                calls += s[0]
                total += s[1]
        return calls, total

    def self_delta_sum(self):
        """Sum of every span's self counter delta."""
        acc = self._zero
        for s in self.stats.values():
            acc = tuple(map(add, acc, s[4]))
        return acc

    def backend_counter_sum(self):
        acc = self._zero
        for be in self.backends:
            acc = tuple(map(add, acc, self._snap(be.counters)))
        return acc

    def span_log(self):
        """Recorded spans as [name, parent index, start_ns, end_ns, self delta]."""
        return [
            [self.names[s[0]], s[1], s[2], s[3], list(s[4]) if s[4] else None]
            for s in self.spans
            if s is not None
        ]
