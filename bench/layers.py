"""Per-layer tracing from outside the library, by rebinding module attributes.

The layers are the modules of ``snm``: ``special``, ``core``, ``gamma``,
``beta`` and ``elliptic``.  ``Tracer.install`` replaces each traced
function with a wrapper in every ``snm`` module that holds it (so both
``snm.special.reg_gamma_p`` and ``snm.gamma.reg_gamma_p`` are caught), and
each traced method in its class; ``Tracer.remove`` puts every original
back.  Spans are kept in memory as (name, start, end, parent, result) and
reduced per pass; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

import snm
import snm.beta
import snm.core
import snm.elliptic
import snm.gamma
import snm.special

SPECIAL_FUNCTIONS = ("ln_gamma", "ln_beta", "reg_gamma_p", "reg_gamma_q",
                     "gamma_density", "reg_beta", "ellip_e_inc",
                     "ellip_e_complete", "bisect_root")

# Span name -> (module, function name); the span name is the metric prefix.
FUNCTIONS = {
    **{f"special.{name}": (snm.special, name) for name in SPECIAL_FUNCTIONS},
    "core.solve": (snm.core, "solve"),
    "core.snm_step": (snm.core, "snm_step"),
    "core.halley_step": (snm.core, "halley_step"),
    "core.newton_step": (snm.core, "newton_step"),
    "gamma.invert": (snm.gamma, "invert_gamma"),
    "gamma.setup": (snm.gamma, "gamma_start"),
    "beta.invert": (snm.beta, "invert_beta"),
    "beta.setup": (snm.beta, "beta_plan"),
    "beta.beta_omega_logit": (snm.beta, "beta_omega_logit"),
    "elliptic.invert": (snm.elliptic, "invert_ellip_e"),
    "elliptic.setup": (snm.elliptic, "choose_start"),
}

# (span name, class, attribute).  Elliptic set-up is choose_start plus
# EllipticProblem construction, so both spans share a name.
METHODS = (
    ("core.ProblemEvaluation.build", snm.core.ProblemEvaluation, "build"),
    ("core.FunctionProblem.evaluate", snm.core.FunctionProblem, "evaluate"),
    ("gamma.evaluate", snm.gamma.GammaDirectProblem, "evaluate"),
    ("gamma.evaluate", snm.gamma.GammaLogProblem, "evaluate"),
    ("beta.evaluate", snm.beta.BetaDirectProblem, "evaluate"),
    ("beta.evaluate", snm.beta.BetaLogitProblem, "evaluate"),
    ("elliptic.evaluate", snm.elliptic.EllipticProblem, "evaluate"),
    ("elliptic.setup", snm.elliptic.EllipticProblem, "__init__"),
)

EVALUATE_SPANS = frozenset(name for name, _, _ in METHODS if name.endswith(".evaluate"))
INVERT_SPANS = frozenset(f"{s}.invert" for s in ("gamma", "beta", "elliptic"))
# Spans whose return value the reduction reads.
KEEP_RESULT = INVERT_SPANS | {"core.solve"}


def _check_problem_classes() -> None:
    """Refuse to trace if a concrete Problem class's evaluate is not traced."""
    traced = {cls for _, cls, attr in METHODS if attr == "evaluate"}
    todo, missing = [snm.core.Problem], []
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if "evaluate" in vars(sub) and sub not in traced:
                missing.append(sub.__qualname__)
    if missing:
        raise RuntimeError(f"untraced Problem classes: {sorted(missing)}")


class Tracer:
    """Span recorder; ``install`` and ``remove`` bracket a traced section."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Runs call(arg), one query, under a root span.
        self.query = self._wrap("query", lambda call, arg: call(arg))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = name in KEEP_RESULT

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, result if keep else None)

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        _check_problem_classes()
        modules = [m for key, m in sys.modules.items()
                   if key == "snm" or key.startswith("snm.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, alias, wrapper)
        for name, cls, attr in METHODS:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._rebind(cls, attr, self._wrap(name, raw))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def reduce_pass(spans: list) -> dict:
    """Counts and self times of one traced pass.

    Returns ``calls`` and ``self_ns`` per span name; ``solves``, one
    (iterations, evaluations, fallbacks, converged) record per solve that
    returned; ``inverts``, per solver one (solves run, iterations) record
    per ``invert_*`` call; and ``useful``, the number of solves whose
    report was returned to the caller.
    """
    child_ns = [0] * len(spans)
    evals = Counter()
    solves_under: dict[int, list] = {}
    for name, t0, t1, parent, result in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
            if name in EVALUATE_SPANS:
                evals[parent] += 1
            elif name == "core.solve":
                solves_under.setdefault(parent, []).append(result)
    calls = Counter()
    self_ns = Counter()
    solves = []
    inverts: dict[str, list] = {}
    useful = 0
    for i, (name, t0, t1, parent, result) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += t1 - t0 - child_ns[i]
        if name == "core.solve" and result is not None:
            solves.append((result.iterations, evals[i],
                           sum(r.fallback_used for r in result.trace),
                           result.converged))
            if spans[parent][0] == "query":
                useful += 1  # the caller's own solve: its report is returned
        elif name in INVERT_SPANS:
            reports = [r for r in solves_under.get(i, ()) if r is not None]
            inverts.setdefault(name.split(".")[0], []).append(
                (len(solves_under.get(i, ())), sum(r.iterations for r in reports)))
            # invert_* returns one of its solves' reports with a new root;
            # the trace tuple is carried over unchanged.
            if result is not None and any(
                    r.trace is result.trace and r.iterations == result.iterations
                    for r in reports):
                useful += 1
    return {"calls": calls, "self_ns": self_ns, "solves": solves,
            "inverts": inverts, "useful": useful}
