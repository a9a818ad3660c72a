"""Run-time tracing of qident from outside its source.

``Tracer.install`` wraps the public functions of each qident module (and
every copy of them that another qident module imported) in spans, and the
scalar operators in counters.  Spans keep name, start, end, parent and the
benchmark operation (verdict group) they belong to; they stay in memory until
``write`` dumps them.  Nothing under src/ is edited; an untraced run never
calls ``install``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "qkernel",
    "series",
    "powerseries",
    "askey_wilson",
    "identities",
    "products",
    "integrals",
    "reporting",
    "cli",
)

# Spans whose return value carries a work count: name -> (counter, getter).
_RESULT_COUNTS = {
    "qkernel.qpoch_infinite": ("qkernel.qpoch_infinite.factors", lambda r: r[1].terms_used),
    "series.eval_phi_nonterminating": ("series.eval_phi_nonterminating.terms", lambda r: r[1].terms_used),
    "series.certified_sum": ("series.certified_sum.terms", lambda r: r[1].terms_used),
    "integrals.integrate_periodic": ("integrals.quadrature_nodes", lambda r: r[2]),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op)
        self.stats = {}  # name -> [calls, self seconds, total seconds]
        self.counts = {}
        self.op = None
        self._stack = []  # [span index, name, start, child seconds]

    # -- recording ---------------------------------------------------------
    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name: str, fn):
        """fn wrapped so that each call records one span named `name`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                total = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += total
                tracer.spans[index] = (name, frame[2], end, parent[0] if parent else None, tracer.op)
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += total - frame[3]
                st[2] += total
            extra = _RESULT_COUNTS.get(name)
            if extra is not None:
                tracer.count(extra[0], extra[1](result))
            return result

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        modules = {name: importlib.import_module(f"qident.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("qident")]
        integrals = modules["integrals"]

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self.span(f"{layer}.{attr}", obj)
                if mod is integrals and attr in ("integrate_periodic", "hypothesis_prescan"):
                    wrapped = self._wrap_integrand(wrapped, attr)
                for ns in namespaces:
                    if getattr(ns, attr, None) is obj:
                        setattr(ns, attr, wrapped)

        qk = modules["qkernel"]
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
            setattr(qk.ExactScalar, op, self.counter("qkernel.exact_ops", getattr(qk.ExactScalar, op)))
        qk.ApproxScalar._binop = self.counter("qkernel.approx_ops", qk.ApproxScalar._binop)

        ps = modules["powerseries"].PowerSeriesTrunc
        mul = self.span("powerseries.mul", ps.__mul__)
        ps.__mul__ = ps.__rmul__ = mul

        rf = modules["reporting"].ReportFile
        rf.to_json = self.span("reporting.serialize", rf.to_json)
        rf.to_csv = self.span("reporting.serialize", rf.to_csv)

        self._wrap_registry(modules["identities"])

    def _wrap_integrand(self, fn, attr: str):
        """integrate_periodic(integrand, ...) / hypothesis_prescan(moduli, integrand, ...)
        with the integrand itself traced as integrals.integrand."""
        pos = 0 if attr == "integrate_periodic" else 1
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = list(args)
            args[pos] = tracer.span("integrals.integrand", args[pos])
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_registry(self, identities) -> None:
        """Count left/right-hand-side evaluations and sampler draws per record,
        and accepted draws (draw_params returns)."""
        for key, rec in list(identities._REGISTRY.items()):
            identities._REGISTRY[key] = dataclasses.replace(
                rec,
                lhs_spec=self.counter("identities.lhs_evals", rec.lhs_spec),
                rhs_value=self.counter("identities.rhs_evals", rec.rhs_value),
                sampler=self.counter("identities.sampler_draws", rec.sampler),
            )
        draw = identities.draw_params

        @functools.wraps(draw)
        def counted_draw(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.count("identities.accepted_draws")
            return out

        identities.draw_params = counted_draw

    # -- results ---------------------------------------------------------------
    def metrics(self) -> dict:
        """The per-layer metrics, each {"value", "unit"}."""
        st = lambda name: self.stats.get(name, [0, 0.0, 0.0])  # noqa: E731
        c = lambda name: self.counts.get(name, 0)  # noqa: E731
        ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
        out = {}

        def calls(name):
            out[f"{name}.calls"] = (st(name)[0], "count")

        def self_s(name):
            out[f"{name}.self_s"] = (st(name)[1], "s")

        out["qkernel.exact_ops"] = (c("qkernel.exact_ops"), "count")
        for name in ("series.eval_phi_terminating", "powerseries.phi_series_coeffs", "powerseries.mul",
                     "askey_wilson.eval_aw", "identities.verify"):
            calls(name)
            self_s(name)
        for name in ("askey_wilson.eval_special_value", "products.product_coefficient_check",
                     "products.awgf_coefficient_check", "identities.draw_params"):
            self_s(name)
        calls("identities.constraints")
        verdicts = st("identities.verify")[0]
        out["identities.lhs_evals_per_verdict"] = (ratio(c("identities.lhs_evals"), verdicts), "ratio")
        out["identities.rhs_evals_per_verdict"] = (ratio(c("identities.rhs_evals"), verdicts), "ratio")
        out["identities.draw_accept_ratio"] = (
            ratio(c("identities.accepted_draws"), c("identities.sampler_draws")), "ratio")
        calls("qkernel.qpoch_infinite")
        out["qkernel.qpoch_infinite.factors"] = (c("qkernel.qpoch_infinite.factors"), "count")
        self_s("qkernel.qpoch_infinite")
        out["qkernel.approx_ops"] = (c("qkernel.approx_ops"), "count")
        for name in ("series.eval_phi_nonterminating", "series.certified_sum"):
            calls(name)
            out[f"{name}.terms"] = (c(f"{name}.terms"), "count")
            self_s(name)
        for name in ("series.eval_qappell_phi1", "series.eval_rfs", "products.verify_product",
                     "products.triple_sum_32pf", "products.quad_cor13"):
            self_s(name)
        integrand = st("integrals.integrand")
        calls("integrals.integrand")
        self_s("integrals.integrand")
        out["integrals.node_us"] = (ratio(integrand[2], integrand[0]) * 1e6, "us")
        out["integrals.quadrature_nodes"] = (c("integrals.quadrature_nodes"), "count")
        self_s("integrals.integrate_periodic")
        self_s("integrals.hypothesis_prescan")
        out["integrals.useful_node_ratio"] = (ratio(c("integrals.quadrature_nodes"), integrand[0]), "ratio")
        self_s("reporting.serialize")
        self_s("cli.main")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path: str) -> None:
        """One JSON object per span, in the order the spans started."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
