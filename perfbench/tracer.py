"""Spans around doflab's public functions, placed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``doflab`` module that binds it (the defining module, the package root and
every ``from .x import f`` copy), and ``uninstall`` puts the originals
back. Callers inside the package look these names up at call time, so a
wrapper sees every call without a hook in the program. Spans (name, start,
end, parent) stay in memory and are written out when the run ends.

The two kernels also get computed cost estimates from the shapes they are
called with. These are operation and byte counts derived from the
algorithm, not hardware counters.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public functions timed as spans
SPANS = {
    "region": ("dof_region", "region_equal", "representative_corner"),
    "converse": ("converse_region",),
    "scheme": ("plan_schedule", "plan_tdma", "achievable_region", "order2_payload", "achieved_dof"),
    "simulate": (
        "estimate_rates", "rank_check_campaign", "gen_channels", "quantize_csit",
        "build_phase_matrices",
    ),
    "kernels": ("logdet_rate_bits", "numerical_rank"),
    "cli": ("main",),
}
# layer -> functions only counted: called so often that a span each would
# cost more than the work it measures
COUNTED = {"rational": ("as_ratio",)}

COMPLEX_BYTES = 16
# real floating-point operations per complex multiply-add
FLOPS_PER_CMAC = 8


def logdet_cost(m: int, k: int) -> tuple[float, float]:
    """(flops, bytes) of ``logdet_rate_bits`` on G (m, k), Sigma (m, m):
    Cholesky of Sigma m^3/3, the triangular solve m^2 k, the Gram k^2 m and
    its Cholesky k^3/3 complex multiply-adds. Bytes: read G and Sigma,
    write the factor and the whitened G, write the Gram and its factor."""
    cmacs = m**3 / 3 + m * m * k + k * k * m + k**3 / 3
    elements = 2 * (m * m + m * k) + 2 * k * k
    return FLOPS_PER_CMAC * cmacs, COMPLEX_BYTES * elements


def rank_cost(m: int, n: int) -> tuple[float, float]:
    """(flops, bytes) of ``numerical_rank`` on an (m, n) matrix: singular
    values only, via bidiagonalization, 4 n^2 (m - n/3) real flops with
    m >= n, four times that for complex. Bytes: read A, write its copy."""
    m, n = max(m, n), min(m, n)
    return 4 * 4 * n * n * (m - n / 3), COMPLEX_BYTES * 2 * m * n


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index)
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.kernel: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])  # flops, bytes, max dim
        self.max_plan_slots = 0
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        runs inside the span once the call returned."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kernel_wrapper(self, name: str, fn, cost, singular_error):
        stats, counts = self.kernel[name], self.counts

        def measured(*args, **kwargs):
            m, k = args[0].shape
            flops, nbytes = cost(m, k)
            stats[0] += flops
            stats[1] += nbytes
            stats[2] = max(stats[2], m, k)
            try:
                return fn(*args, **kwargs)
            except singular_error:
                counts["kernels.singular_covariance"] += 1
                raise

        return self.span(name, measured)

    def _note_plan(self, args, plan):
        self.max_plan_slots = max(self.max_plan_slots, plan.total_slots)

    def _wrapper_for(self, layer: str, attr: str, fn, doflab):
        name = f"{layer}.{attr}"
        if layer in COUNTED:
            return self.counted(name, fn)
        if attr == "logdet_rate_bits":
            return self._kernel_wrapper(name, fn, logdet_cost, doflab.SingularCovariance)
        if attr == "numerical_rank":
            return self._kernel_wrapper(name, fn, rank_cost, doflab.SingularCovariance)
        if attr in ("plan_schedule", "plan_tdma"):
            return self.span(name, fn, after=self._note_plan)
        return self.span(name, fn)

    def install(self, doflab) -> None:
        """Wrap every traced function wherever a doflab module binds it."""
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "doflab" or key.startswith("doflab."))
        ]
        for layer, attrs in (*SPANS.items(), *COUNTED.items()):
            home = getattr(doflab, layer, None)
            if home is None:  # doflab.cli is loaded only by the campaigns
                continue
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._wrapper_for(layer, attr, original, doflab)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patches.append((mod, key, original))
        region_cls = doflab.region.DofRegion
        original = region_cls.vertices
        region_cls.vertices = self.span("region.vertices", original)
        self._patches.append((region_cls, "vertices", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in seconds."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (nid, start, end, parent) in enumerate(self.spans):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{self.names[nid]}\t{start}\t{end}\t{parent}\n")
