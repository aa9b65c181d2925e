"""Span tracing of zakfiber's layers from outside the package.

``Tracer.install()`` replaces every public function an op can reach with a
wrapper that records a span (name, start, end, parent span, op id), and
``uninstall()`` puts the originals back.  A function is replaced under
every name any zakfiber module binds it to, so calls made through
``from .x import f`` bindings are traced as well; methods are replaced on
their class.  Spans stay in memory until ``write()``.

Span names are ``<layer>.<stage>``, where the layer is the zakfiber module
that does the work.  A layer's self time is its span durations minus the
time covered by child spans; op wall time covered by no library span is
``cli.glue``.  Fine-grained helpers (``character``, ``zak_point``,
``QuasiInvariantAction.apply``) are not wrapped: their time is self time
of the span that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import zlib

import numpy as np

# (module, attribute or Class.method, span name)
TARGETS = [
    ("zakfiber.scenario", "parse_scenario", "scenario.parse"),
    ("zakfiber.group", "subgroup_from_generators",
     "group.subgroup_from_generators"),
    ("zakfiber.group", "annihilator", "group.annihilator"),
    ("zakfiber.group", "coset_transversal", "group.coset_transversal"),
    ("zakfiber.action", "validate_action", "action.validate"),
    ("zakfiber.action", "affine_action", "action.build"),
    ("zakfiber.action", "QuasiInvariantAction.__init__", "action.build"),
    ("zakfiber.action", "tiling_transversal", "action.transversal"),
    ("zakfiber.zak", "ZakTransform.__init__", "zak.build"),
    ("zakfiber.zak", "ZakTransform.forward", "zak.forward"),
    ("zakfiber.zak", "ZakTransform.inverse", "zak.inverse"),
    ("zakfiber.frames", "frame_check", "frames.spectra"),
    ("zakfiber.frames", "riesz_check", "frames.spectra"),
    ("zakfiber.frames", "frame_check_fibers", "frames.spectra"),
    ("zakfiber.frames", "riesz_check_fibers", "frames.spectra"),
    ("zakfiber.ranges", "range_from_generators", "ranges.range"),
    ("zakfiber.ranges", "range_from_fibers", "ranges.range"),
    ("zakfiber.ranges", "membership", "ranges.membership"),
    ("zakfiber.ranges", "membership_fibers", "ranges.membership"),
    ("zakfiber.decomp", "parseval_decompose", "decomp.decompose"),
    ("zakfiber.decomp", "parseval_decompose_fibers", "decomp.decompose"),
    ("zakfiber.decomp", "verify_decomposition", "decomp.audit"),
    ("zakfiber.decomp", "verify_decomposition_fibers", "decomp.audit"),
    ("zakfiber.translation", "build_scenario", "translation.build"),
    ("zakfiber.translation", "weil_check", "translation.weil"),
    ("zakfiber.translation", "zakG_forward", "translation.zak"),
    ("zakfiber.translation", "zakG_inverse", "translation.zak"),
    ("zakfiber.translation", "fiberize", "translation.fiberize"),
    ("zakfiber.translation", "duality_check", "translation.duality"),
    ("zakfiber.translation", "ti_analyze", "translation.analyze"),
    ("zakfiber.oracle", "synthesis_matrix", "oracle.synthesis"),
    ("zakfiber.oracle", "translation_synthesis_matrix", "oracle.synthesis"),
    ("zakfiber.oracle", "dense_frame_bounds", "oracle.spectra"),
    ("zakfiber.oracle", "dense_riesz_bounds", "oracle.spectra"),
    ("zakfiber.oracle", "frame_bounds_of_matrix", "oracle.spectra"),
    ("zakfiber.oracle", "riesz_bounds_of_matrix", "oracle.spectra"),
    ("zakfiber.oracle", "brute_membership", "oracle.lstsq"),
    ("zakfiber.oracle", "membership_of_matrix", "oracle.lstsq"),
    ("zakfiber.cli", "_emit", "cli.emit"),
]

# Bindings that modules look up by name at call time; each must end up
# wrapped, so a rename or a new import style fails loudly instead of
# silently dropping a layer from the trace.
REQUIRED_BINDINGS = [
    ("zakfiber.cli", "validate_action"),
    ("zakfiber.cli", "parse_scenario"),
    ("zakfiber.cli", "ZakTransform.__init__"),
    ("zakfiber.decomp", "range_from_fibers"),
    ("zakfiber.decomp", "membership_fibers"),
    ("zakfiber.translation", "frame_check_fibers"),
    ("zakfiber.translation", "range_from_fibers"),
    ("zakfiber.translation", "subgroup_from_generators"),
    ("zakfiber.translation", "annihilator"),
    ("zakfiber.translation", "coset_transversal"),
    ("zakfiber.scenario", "build_scenario"),
    ("zakfiber.scenario", "affine_action"),
    ("zakfiber.scenario", "QuasiInvariantAction.__init__"),
    ("zakfiber.zak", "tiling_transversal"),
]

OP = "op"
GLUE = "cli.glue"


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for 'f' or 'Class.method'."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, name):
        raise LookupError(f"{module}.{attr} no longer exists")
    return owner, name


class Tracer:
    """Spans of one process, kept in memory.

    Each span is ``[name, start_ns, end_ns, parent_index, op_id]``; the
    root span of each op is named ``op``.  Counters are kept per op.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.hook_ns: dict[int, int] = {}   # span index -> bookkeeping time
        self.svds = 0
        self.forward_calls = 0
        self.forward_distinct = 0
        self._forward_seen: set = set()
        self._bindings: list[tuple] | None = None

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        first = self._bindings is None
        if first:
            self._bindings = self._find_bindings()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        if not first:
            return
        for module, attr in REQUIRED_BINDINGS:
            owner, name = _resolve(module, attr)
            if not hasattr(getattr(owner, name), "__span__"):
                self.uninstall()
                raise LookupError(f"{module}.{attr} is not traced")

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._bindings or []):
            setattr(owner, name, original)

    def _find_bindings(self) -> list[tuple]:
        """(owner, name, original, wrapper) for every binding to replace."""
        modules = [m for n, m in sys.modules.items()
                   if n == "zakfiber" or n.startswith("zakfiber.")]
        bindings = []
        for module, attr, span in TARGETS:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            wrapper = self._wrap(original, span, _HOOKS.get((module, attr)))
            if "." in attr:
                bindings.append((owner, name, original, wrapper))
                continue
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        bindings.append((mod, key, original, wrapper))
        return bindings

    def _wrap(self, fn, span_name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                t = time.perf_counter_ns()
                hook(tracer, args)
                parent = tracer.stack[-1] if tracer.stack else None
                tracer.hook_ns[parent] = tracer.hook_ns.get(parent, 0) + \
                    time.perf_counter_ns() - t
            return tracer._span(span_name, fn, args, kwargs)

        wrapper.__span__ = span_name
        return wrapper

    def _span(self, name, fn, args, kwargs):
        rec = [name, 0, 0, self.stack[-1] if self.stack else None,
               self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    # -- ops ------------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span; returns (result, wall_ns)."""
        self.op_id = op_id
        self._forward_seen = set()
        root = len(self.spans)
        self.install()
        try:
            result = self._span(OP, fn, args, {})
        finally:
            self.uninstall()
            self.forward_distinct += len(self._forward_seen)
        _, start, end, _, _ = self.spans[root]
        return result, end - start

    # -- results ----------------------------------------------------------

    def summary(self, n_ops: int) -> dict:
        """Per-name self time, outermost calls and counters, per op."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        op_ns = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_ns[i] - self.hook_ns.get(i, 0)
            key = GLUE if name == OP else name
            self_ns[key] = self_ns.get(key, 0) + own
            if name == OP:
                op_ns += end - start - self.hook_ns.get(i, 0)
            elif parent is None or self.spans[parent][0] != name:
                calls[name] = calls.get(name, 0) + 1
        n = max(n_ops, 1)
        layers = {
            name: {"self_ms": ns / 1e6 / n,
                   "share": ns / op_ns if op_ns else 0.0,
                   "calls_per_op": calls.get(name, 0) / n}
            for name, ns in sorted(self_ns.items())
        }
        return {
            "layers": layers,
            "coverage": 1.0 - self_ns.get(GLUE, 0) / op_ns if op_ns else 0.0,
            "fiber_svds_per_op": self.svds / n,
            "forward_useful_ratio": (self.forward_distinct
                                     / self.forward_calls
                                     if self.forward_calls else 1.0),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([op_id, name, start, end, parent]) + "\n")


def _count_svds(tracer: Tracer, args) -> None:
    fibered = args[0]
    if fibered:
        tracer.svds += fibered[0].n_fibers


def _count_forward(tracer: Tracer, args) -> None:
    transform, psi = args[0], args[1]
    data = np.ascontiguousarray(np.asarray(psi, dtype=complex))
    tracer.forward_calls += 1
    tracer._forward_seen.add((id(transform), data.shape, zlib.crc32(data)))


_HOOKS = {
    ("zakfiber.frames", "frame_check_fibers"): _count_svds,
    ("zakfiber.frames", "riesz_check_fibers"): _count_svds,
    ("zakfiber.zak", "ZakTransform.forward"): _count_forward,
}
