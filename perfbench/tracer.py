"""Outside-in tracer: wraps cocyclekit's public functions from the benchmark's side.

Nothing under `src/` knows about it. `Tracer.install()` replaces each traced
function or method with a wrapper, in its defining module and in every
`cocyclekit` module namespace that bound the same object with `from ... import`;
`Tracer.uninstall()` puts every original back.

Spans are kept per thread, because `cli.execute_checks` runs the checks of a
multi-check scenario on its own thread pool. A span's self time is its wall
time on its thread minus the wall time of the spans it encloses on the same
thread. Threads that wait for the interpreter lock keep their span clocks
running, so when checks overlap the self times of all layers can sum past the
pass's wall time.

A nested call to a span that is already open on the thread (recursion, or a
`MapChain` calling a `HoloMap` under the same layer name) is part of the
outer span and is not counted again.

A target the program no longer has is skipped and named in `Tracer.missing`;
its metrics then read 0, so the benchmark keeps running across refactors.
"""

import functools
import importlib
import sys
import threading
import time

CHECK_TYPES = ("affine-vanishing", "tau-closedness", "witness", "telescoping",
               "dk-validate", "theta-composition", "bm-dbar", "bm-reproducing")

# (metric name, unit) for every per-layer metric a traced run reports
PER_LAYER = (
    [("expr.%s.%s" % (e, m), u) for e in ("differentiate", "substitute")
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("expr.nodes", "count")]
    + [("holomap.%s.%s" % (e, m), u) for e in ("eval", "jacobian", "compose")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("holomap.jac_exprs.hit_ratio", "ratio"), ("holomap.djac_exprs.hit_ratio", "ratio")]
    + [("forms.theta.calls", "count"), ("forms.theta.zero_ratio", "ratio")]
    + [("forms.%s.%s" % (e, m), u) for e in ("matrix_eval", "kform_eval")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("forms.sample.calls", "count"), ("forms.sample.points", "count"),
       ("forms.sample.self_s", "s")]
    + [("invariants.eval_invariant.calls", "count"),
       ("invariants.eval_invariant.self_s", "s"),
       ("invariants.todd_invariant.calls", "count")]
    + [("cocycle.%s.%s" % (e, m), u)
       for e in ("cf_label_top", "verify_telescoping", "cf_map")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("simplicial.dk_validate.calls", "count"), ("simplicial.dk_validate.self_s", "s")]
    + [("cechgroup.tau_invariant.calls", "count"),
       ("cechgroup.cohomologous_witness.calls", "count"),
       ("cechgroup.cells", "count")]
    + [("cechgroup.%s.%s" % (e, m), u) for e in ("cell_form", "value")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("cechgroup.terms", "count"),
       ("cechgroup.closedness_report.self_s", "s"),
       ("cechgroup.witness_report.self_s", "s")]
    + [("cechgroup.%s.hit_ratio" % e, "ratio")
       for e in ("base_value", "transition", "word_map")]
    + [("bm.reproducing_integral.calls", "count"), ("bm.reproducing_integral.self_s", "s"),
       ("bm.bm_coefficients.calls", "count"), ("bm.dbar_closed_check.self_s", "s")]
    + [("scenario.load.calls", "count"), ("scenario.load.self_s", "s")]
    + [("cli.check_s.%s" % t, "s") for t in CHECK_TYPES]
    + [("cli.check_wait_s", "s"), ("cli.check_overlap", "ratio"),
       ("cli.report_write_s", "s"), ("cli.max_residual", "residual"),
       ("cli.pool_threads", "threads")]
    + [("trace.verify_s", "s"), ("trace.overhead_ratio", "ratio"),
       ("trace.unstable_counts", "count"), ("gate.check_fail_ratio", "ratio")]
)


class _ThreadState:
    def __init__(self):
        self.stack = []      # open spans: [start, time covered by child spans]
        self.active = {}     # span name -> nesting depth on this thread
        self.calls = {}
        self.self_s = {}
        self.counts = {}

    def add(self, table, name, value):
        table[name] = table.get(name, 0) + value


class Tracer:
    """Per-thread span and counter recorder over patched cocyclekit entry points."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self.missing = []
        self._exec_start = None
        self._exec_threads = set()
        self.max_pool_threads = 0

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def totals(self):
        """Merged {name: value} of calls, self times and counters over all threads."""
        calls, self_s, counts = {}, {}, {}
        with self._lock:
            for st in self._states:
                for src, dst in ((st.calls, calls), (st.self_s, self_s), (st.counts, counts)):
                    for k, v in src.items():
                        dst[k] = dst.get(k, 0) + v
        return calls, self_s, counts

    def _span(self, name, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if st.active.get(name):
                return fn(*args, **kwargs)
            if before is not None:
                before(st, args)
            st.active[name] = 1
            frame = [clock(), 0.0]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                st.stack.pop()
                st.active[name] = 0
                st.add(st.self_s, name, dur - frame[1])
                st.add(st.calls, name, 1)
                if st.stack:
                    st.stack[-1][1] += dur
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def _counter(self, name, fn, before=None, outermost_after=None):
        """Count calls (and run hooks) without opening a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            depth = st.active.get(name, 0)
            if depth == 0:
                st.add(st.calls, name, 1)
                if before is not None:
                    before(st, args)
            st.active[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                st.active[name] = depth
            if depth == 0 and outermost_after is not None:
                outermost_after(st, result)
            return result

        return wrapper

    def _cells(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            for cell in fn(*args, **kwargs):
                st.add(st.counts, "cechgroup.cells", 1)
                yield cell

        return wrapper

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _lookup(path):
        """The cocyclekit module or class named by a dotted path, or None."""
        module, _, cls = path.partition(".")
        try:
            owner = importlib.import_module("cocyclekit." + module)
        except ImportError:
            owner = None
        if owner is not None and cls:
            owner = getattr(owner, cls, None)
        return owner

    def _patch_function(self, module, name, make):
        owner = self._lookup(module)
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append("%s.%s" % (module, name))
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cocyclekit" and not mod_name.startswith("cocyclekit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls_path, name, make):
        cls = self._lookup(cls_path)
        raw = vars(cls).get(name) if cls is not None else None
        if raw is None:
            self.missing.append("%s.%s" % (cls_path, name))
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def _patch_runners(self):
        tracer = self
        clock = time.perf_counter
        runners = getattr(self._lookup("cli"), "CHECK_RUNNERS", {})
        for ctype, runner in list(runners.items()):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(scn, entry):
                    started = clock()
                    st = tracer._state()
                    if tracer._exec_start is not None:
                        st.add(st.counts, "cli.check_wait_s", started - tracer._exec_start)
                    with tracer._lock:
                        tracer._exec_threads.add(threading.get_ident())
                    return fn(scn, entry)
                return wrapper
            self._patches.append((runners, ctype, runner))
            runners[ctype] = make(runner)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        span, counter = self._span, self._counter

        def hit(name, cached):
            def before(st, args):
                st.add(st.counts, name + ".lookups", 1)
                if cached(*args):
                    st.add(st.counts, name + ".hits", 1)
            return before

        def add_points(st, args):
            st.add(st.counts, "forms.sample.points", len(args[2]))

        def theta_zero(st, args, result):
            if result.structurally_zero:
                st.add(st.counts, "forms.theta.zero", 1)

        def compose_nodes(st, args, result):
            st.add(st.counts, "expr.nodes", sum(_nodes(c) for c in result.components))

        def outer_terms(st, result):
            st.add(st.counts, "cechgroup.terms", len(result))

        fn = self._patch_function
        fn("expr", "differentiate", lambda f: span("expr.differentiate", f))
        fn("expr", "substitute", lambda f: span("expr.substitute", f))
        fn("holomap", "compose", lambda f: span("holomap.compose", f, after=compose_nodes))
        fn("forms", "theta", lambda f: span("forms.theta", f, after=theta_zero))
        fn("invariants", "eval_invariant", lambda f: span("invariants.eval_invariant", f))
        fn("invariants", "todd_invariant", lambda f: counter("invariants.todd_invariant", f))
        for name in ("cf_label_top", "verify_telescoping", "cf_map"):
            fn("cocycle", name, lambda f, name=name: span("cocycle." + name, f))
        fn("simplicial", "dk_validate", lambda f: span("simplicial.dk_validate", f))
        for name in ("tau_invariant", "cohomologous_witness"):
            fn("cechgroup", name, lambda f, name=name: counter("cechgroup." + name, f))
        fn("cechgroup", "enumerate_cells", self._cells)
        for name in ("closedness_report", "witness_report"):
            fn("cechgroup", name, lambda f, name=name: span("cechgroup." + name, f))
        fn("bm", "reproducing_integral", lambda f: span("bm.reproducing_integral", f))
        fn("bm", "bm_coefficients", lambda f: counter("bm.bm_coefficients", f))
        fn("bm", "dbar_closed_check", lambda f: span("bm.dbar_closed_check", f))
        fn("cli", "write_report", lambda f: span("cli.write_report", f))
        fn("cli", "execute_checks", self._wrap_execute)

        m = self._patch_method
        for cls in ("holomap.HoloMap", "holomap.MapChain"):
            m(cls, "eval", lambda f: span("holomap.eval", f))
            for name in ("jacobian", "jacobian_inverse"):
                m(cls, name, lambda f: span("holomap.jacobian", f))
        m("holomap.HoloMap", "jac_exprs", lambda f: counter(
            "holomap.jac_exprs", f, before=hit("holomap.jac_exprs",
                                               lambda s: s._jac is not None)))
        m("holomap.HoloMap", "djac_exprs", lambda f: counter(
            "holomap.djac_exprs", f, before=hit("holomap.djac_exprs",
                                                lambda s, a: a in s._djac)))
        m("forms.MatrixOneForm", "eval", lambda f: span("forms.matrix_eval", f))
        m("forms.ScalarKForm", "eval", lambda f: span("forms.kform_eval", f))
        m("forms.SampledForm", "sample", lambda f: span("forms.sample", f, before=add_points))
        m("cechgroup.PathLabeler", "cell_form", lambda f: span("cechgroup.cell_form", f))
        m("cechgroup.CochainExpression", "value", lambda f: span("cechgroup.value", f))
        m("cechgroup.CochainExpression", "terms", lambda f: counter(
            "cechgroup.terms_calls", f, outermost_after=outer_terms))
        m("cechgroup.MixedCochain", "base_value", lambda f: counter(
            "cechgroup.base_value", f, before=hit(
                "cechgroup.base_value",
                lambda s, bd, J, G: (bd, tuple(J), tuple(G)) in s._cache)))
        m("cechgroup.PathLabeler", "transition", lambda f: counter(
            "cechgroup.transition", f, before=hit(
                "cechgroup.transition", lambda s, va, vb: (va, vb) in s._transitions)))
        m("cechgroup.GroupActionSpec", "word_map", lambda f: counter(
            "cechgroup.word_map", f, before=hit(
                "cechgroup.word_map", lambda s, w, n=None: w in s._word_maps)))
        m("scenario.Scenario", "load", lambda f: span("scenario.load", f))
        self._patch_runners()

    def _wrap_execute(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(scn):
            tracer._exec_threads = set()
            tracer._exec_start = time.perf_counter()
            try:
                return fn(scn)
            finally:
                tracer._exec_start = None
                tracer.max_pool_threads = max(tracer.max_pool_threads,
                                              len(tracer._exec_threads))

        return wrapper

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _nodes(e):
    return 1 + sum(_nodes(c) for c in e.children())


def layer_metrics(tracer):
    """Tracer totals as {metric: value} for the span and counter metrics."""
    calls, self_s, counts = tracer.totals()
    out = {}

    def ratio(num, den):
        return num / den if den else 0.0

    for name, unit in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            out[name] = calls.get(head, 0)
        elif tail == "self_s":
            out[name] = self_s.get(head, 0.0)
        elif tail == "hit_ratio":
            out[name] = ratio(counts.get(head + ".hits", 0), counts.get(head + ".lookups", 0))
        elif name == "forms.theta.zero_ratio":
            out[name] = ratio(counts.get("forms.theta.zero", 0), calls.get("forms.theta", 0))
        elif name in ("expr.nodes", "forms.sample.points", "cechgroup.cells",
                      "cechgroup.terms", "cli.check_wait_s"):
            out[name] = counts.get(name, 0)
    out["cli.report_write_s"] = self_s.get("cli.write_report", 0.0)
    out["cli.pool_threads"] = tracer.max_pool_threads
    return out
