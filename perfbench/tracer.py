"""Call tracer for the wreathstats modules, installed from outside the package.

``Tracer.install`` replaces every public function, every public method and
constructor of the public classes, and the ring operators of ``MultiPoly``
with a timing wrapper.  A name is replaced in every wreathstats module that
binds it (``identities`` imports ``raw_statistics`` from ``group``, for
example), so calls between modules are traced too.  ``uninstall`` puts the
original objects back.

Every wrapped call adds to its key's call count and summed time.  The call's
duration minus the time of the wrapped calls it makes is its self time,
summed per key and per module.  Calls also keep a span ``(key, start, end,
span id, parent id)``, except hot leaves (``HOT``, constructors and
generator resumptions), which keep counts and time only, because a span per
group element would cost more than the work it measures.

``order_key`` is not wrapped: it is a two-line sort key called several
times per element, and wrapping it would multiply the traced time.  Its
time, and that of every private helper, counts to the module of the
nearest wrapped caller.

The tracer keeps one call stack, so it must only see calls from one
thread; the benchmark makes no threaded calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time

MODULES = ("group", "encoding", "parabolic", "biwords", "qseries",
           "identities", "cli")

# Operators and constructors wrapped on the public classes; other dunders
# (hash, repr, equality of dataclasses) are generated or trivial.
_CLASS_DUNDERS = ("__init__", "__post_init__", "__add__", "__radd__",
                  "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                  "__pow__")

_SKIP = {"group.order_key"}

HOT = {
    "group.raw_statistics", "group.statistics", "group.skew_inverse",
    "group.inverse", "group.multiply", "group.format_window",
    "encoding.pi_of", "encoding.lambda_of", "encoding.sequence_from",
    "encoding.lambda_gamma", "encoding.is_compatible",
    "encoding.format_sequence", "biwords.is_biword",
    "biwords.column_multiset", "qseries.MultiPoly.__add__",
    "qseries.MultiPoly.__radd__", "qseries.MultiPoly.__sub__",
    "qseries.MultiPoly.__rsub__", "qseries.MultiPoly.__neg__",
    "qseries.MultiPoly.zero", "qseries.MultiPoly.constant",
    "qseries.MultiPoly.variable", "qseries.MultiPoly.monomial",
    "qseries.MultiPoly.degree", "qseries.MultiPoly.coefficient",
    "qseries.SeriesContext.index", "qseries.SeriesContext.cap",
    "qseries.monomial_text",
}

_MUL_KEYS = ("qseries.MultiPoly.__mul__", "qseries.MultiPoly.__rmul__")


def _poly_len(x):
    terms = getattr(x, "terms", None)
    return len(terms) if isinstance(terms, dict) else 1


def _after_mul(tracer, fn, args, kwargs, result):
    add = tracer.extra
    add["qseries.mul.term_pairs"] = (add.get("qseries.mul.term_pairs", 0)
                                     + _poly_len(args[0]) * _poly_len(args[1]))
    add["qseries.mul.out_terms"] = (add.get("qseries.mul.out_terms", 0)
                                    + len(result.terms))


def _after_poly_init(tracer, fn, args, kwargs, result):
    size = len(args[0].terms)
    if size > tracer.peak.get("qseries.peak_terms", 0):
        tracer.peak["qseries.peak_terms"] = size


def _after_dist_polynomial(tracer, fn, args, kwargs, result):
    # dist_polynomial visits the whole group of its (r, n).
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    elements = tracer.group_order(bound["r"], bound["n"])
    tracer.extra["identities.dist_polynomial.elements"] = (
        tracer.extra.get("identities.dist_polynomial.elements", 0) + elements)


def _after_verify(tracer, fn, args, kwargs, result):
    add = tracer.extra
    add["identities.lhs_terms"] = add.get("identities.lhs_terms", 0) + result.lhs_terms
    add["identities.rhs_terms"] = add.get("identities.rhs_terms", 0) + result.rhs_terms


_AFTER = {
    "qseries.MultiPoly.__mul__": _after_mul,
    "qseries.MultiPoly.__rmul__": _after_mul,
    "qseries.MultiPoly.__init__": _after_poly_init,
    "identities.dist_polynomial": _after_dist_polynomial,
    "identities.verify_identity": _after_verify,
}


class Tracer:
    """Counts, times and spans of the wrapped wreathstats calls."""

    def __init__(self):
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = {}
        self.time = {}
        self.self_key = {}
        self.self_module = {}
        self.extra = {}
        self.peak = {}
        self.spans = []

    def _enter(self):
        parent = self._stack[-1][2] if self._stack else 0
        frame = [time.perf_counter(), 0.0, next(self._ids), parent]
        self._stack.append(frame)
        return frame

    def _exit(self, key, module, frame, hot):
        end = time.perf_counter()
        self._stack.pop()
        start, child = frame[0], frame[1]
        dur = end - start
        self_time = dur - child
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[key] = self.calls.get(key, 0) + 1
        self.time[key] = self.time.get(key, 0.0) + dur
        self.self_key[key] = self.self_key.get(key, 0.0) + self_time
        self.self_module[module] = self.self_module.get(module, 0.0) + self_time
        if not hot:
            self.spans.append((key, start, end, frame[2], frame[3]))

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, key, module, fn):
        hot = key in HOT or key.endswith(("__init__", "__post_init__"))
        after = _AFTER.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, fn, args, kwargs, result)
            finally:
                tracer._exit(key, module, frame, hot)
            return result

        return wrapper

    def _wrap_generator(self, key, module, fn):
        """Each resumption of the generator is one timed call; items are counted."""
        tracer = self
        items_key = key + ".items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(key, module, frame, True)
                tracer.extra[items_key] = tracer.extra.get(items_key, 0) + 1
                yield item

        return wrapper

    def _wrap(self, key, module, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, module, fn)
        return self._wrap_function(key, module, fn)

    # -- installation ------------------------------------------------------

    def install(self, package="wreathstats"):
        """Wrap every traced callable of ``package``."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        top = importlib.import_module(package)
        # Taken before wrapping, so the hooks' own calls are not traced.
        self.group_order = mods["group"].group_order
        binders = list(mods.values()) + [top]
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{short}.{name}"
                if inspect.isfunction(obj) and key not in _SKIP:
                    wrapped = self._wrap(key, short, obj)
                    for binder in binders:
                        for bound_name, value in list(vars(binder).items()):
                            if value is obj:
                                self._patch(binder, bound_name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(short, name, obj)

    def _install_class(self, short, cls_name, cls):
        source = inspect.getsourcefile(cls)
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _CLASS_DUNDERS:
                continue
            key = f"{short}.{cls_name}.{name}"
            if isinstance(attr, classmethod):
                replacement = classmethod(self._wrap(key, short, attr.__func__))
            elif inspect.isfunction(attr) and attr.__code__.co_filename == source:
                # Methods generated by @dataclass are skipped (their code
                # lives in "<string>").  MultiPoly binds __rmul__ to the
                # __mul__ function; each name gets its own key.
                replacement = self._wrap(key, short, attr)
            else:
                continue
            self._patch(cls, name, replacement)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def snapshot(self):
        return {"calls": self.calls, "time": self.time, "self_key": self.self_key,
                "self_module": self.self_module, "extra": self.extra,
                "peak": self.peak, "spans": self.spans}


def layer_metrics(snap):
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, t, self_key = snap["calls"], snap["time"], snap["self_key"]
    extra, mods = snap["extra"], snap["self_module"]

    def c(key):
        return calls.get(key, 0)

    def s(key):
        return t.get(key, 0.0)

    def x(key):
        return extra.get(key, 0)

    out = {
        "qseries.mul.calls": (sum(c(k) for k in _MUL_KEYS), "count"),
        "qseries.mul.term_pairs": (x("qseries.mul.term_pairs"), "count"),
        "qseries.mul.out_terms": (x("qseries.mul.out_terms"), "count"),
        "qseries.mul.self_s": (sum(self_key.get(k, 0.0) for k in _MUL_KEYS), "s"),
        "qseries.reciprocal.s": (s("qseries.reciprocal"), "s"),
        "qseries.divide_exact.s": (s("qseries.divide_exact"), "s"),
        "qseries.divide_exact.calls": (c("qseries.divide_exact"), "count"),
        "qseries.substitute.s": (s("qseries.substitute"), "s"),
        "qseries.peak_terms": (snap["peak"].get("qseries.peak_terms", 0), "count"),
        "group.raw_statistics.calls": (c("group.raw_statistics"), "count"),
        "group.statistics.calls": (c("group.statistics"), "count"),
        "group.enumerate_group.elements": (x("group.enumerate_group.items"), "count"),
        "group.ColoredPermutation.built": (c("group.ColoredPermutation.__post_init__"), "count"),
        "group.parse_window.calls": (c("group.parse_window"), "count"),
        "identities.dist_polynomial.s": (s("identities.dist_polynomial"), "s"),
        "identities.dist_polynomial.elements": (x("identities.dist_polynomial.elements"), "count"),
        "identities.verify_identity.calls": (c("identities.verify_identity"), "count"),
        "identities.lhs_terms": (x("identities.lhs_terms"), "count"),
        "identities.rhs_terms": (x("identities.rhs_terms"), "count"),
        "encoding.enumerate_sequences.items": (x("encoding.enumerate_sequences.items"), "count"),
        "encoding.pi_of.calls": (c("encoding.pi_of"), "count"),
        "encoding.lambda_of.calls": (c("encoding.lambda_of"), "count"),
        "encoding.sequence_from.calls": (c("encoding.sequence_from"), "count"),
        "biwords.enumerate_biwords.items": (x("biwords.enumerate_biwords.items"), "count"),
        "biwords.to_triple.calls": (c("biwords.to_triple"), "count"),
        "parabolic.decompose.calls": (c("parabolic.decompose"), "count"),
        "cli.main.calls": (c("cli.main"), "count"),
    }
    for mod in MODULES:
        out[f"{mod}.self_s"] = (mods.get(mod, 0.0), "s")
    return out
