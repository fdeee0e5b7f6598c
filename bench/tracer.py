"""In-memory spans and exact counters around warpcrit's public calls.

``Tracer.install`` replaces each public function listed in ``SPANS`` by a
wrapper at every name a warpcrit module binds it to (the names the callers
import), and each listed public method on its class; ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.  A span is
``[name, layer, start, end, parent, task]`` with ``parent`` the index of the
enclosing span (-1 for a ``cli.main`` call) and ``task`` the index of the
``cli.main`` call it belongs to.

The right-hand-side helpers (``warp_accel``, ``potential_accel``) are not
wrapped: the integrator calls them on every stage of every step, and their
cost is part of ``rk45.integrate`` by the definition of ``rk45.us_per_fev``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "profiles", "rk45", "matching", "curvature", "spectrum", "serialize")


def _count_main(tr, code, args, kwargs):
    tr.counts["cli.tasks"] += 1
    tr.counts["cli.tasks_failed"] += code != 0


def _count_integrate(tr, result, args, kwargs):
    sol = result[0]
    tr.counts["rk45.calls"] += 1
    tr.counts["rk45.nfev"] += sol.nfev
    tr.counts["rk45.steps_accepted"] += len(sol.ts) - 1
    # One FSAL evaluation at the start, then six per attempted step.
    tr.counts["rk45.steps_attempted"] += (sol.nfev - 1) // 6


def _count_dense(tr, result, args, kwargs):
    points = int(np.size(args[1]))
    tr.counts["rk45.dense_points"] += points
    if tr.depth["matching"]:
        tr.counts["matching.dense_points"] += points


def _count_verify(tr, report, args, kwargs):
    tr.counts["curvature.grid_points"] += report.grid_size


def _count_eigensolve(tr, result, args, kwargs):
    tr.counts["spectrum.eigen_nodes"] += len(args[0])


def _count_csv_written(tr, result, args, kwargs):
    tr.counts["serialize.csv_rows_written"] += int(np.size(args[1].grid))


def _count_csv_read(tr, columns, args, kwargs):
    tr.counts["serialize.csv_rows_read"] += int(np.size(columns["s"]))


# (layer, module, public name or Class.method, counter run on each return).
SPANS = [
    ("cli", "warpcrit.cli", "main", _count_main),
    ("profiles", "warpcrit.profiles", "integrate_profile", None),
    ("profiles", "warpcrit.profiles", "solve_potential", None),
    ("profiles", "warpcrit.profiles", "find_roots", None),
    ("profiles", "warpcrit.profiles", "extend_base", None),
    ("profiles", "warpcrit.profiles", "solve_radius_for_kappa0", None),
    ("profiles", "warpcrit.profiles", "Profile.theta", None),
    ("profiles", "warpcrit.profiles", "Profile.sample", None),
    ("profiles", "warpcrit.profiles", "Profile.sample_base", None),
    ("rk45", "warpcrit.rk45", "integrate", _count_integrate),
    ("rk45", "warpcrit.rk45", "DenseSolution.__call__", _count_dense),
    ("matching", "warpcrit.matching", "match_boundary", None),
    ("matching", "warpcrit.matching", "c_threshold", None),
    ("matching", "warpcrit.matching", "exclusion_zeta", None),
    ("matching", "warpcrit.matching", "improper_integral", None),
    ("matching", "warpcrit.matching", "cumulative_integral", None),
    ("matching", "warpcrit.matching", "classify_roots", None),
    ("matching", "warpcrit.matching", "lhopital_product", None),
    ("matching", "warpcrit.matching", "build_two_boundary_domain", None),
    ("matching", "warpcrit.matching", "build_quotient_domain", None),
    ("matching", "warpcrit.matching", "schwarzschild_form", None),
    ("matching", "warpcrit.matching", "SchwarzschildChart.match", None),
    ("curvature", "warpcrit.curvature", "verify_critical", _count_verify),
    ("curvature", "warpcrit.curvature", "verify_conformally_flat", None),
    ("curvature", "warpcrit.curvature", "curvature_samples", None),
    ("curvature", "warpcrit.curvature", "curvature_at", None),
    ("curvature", "warpcrit.curvature", "level_set_geometry", None),
    ("spectrum", "warpcrit.spectrum", "verify_eigenvalue_signs", None),
    ("spectrum", "warpcrit.spectrum", "first_dirichlet_eigenvalue", None),
    ("spectrum", "warpcrit.spectrum", "eigenvalue_at_resolution", None),
    ("spectrum", "warpcrit.spectrum", "identity_residual", None),
    # scipy's solver at the name spectrum imports it under.
    ("spectrum", "warpcrit.spectrum", "eigh_tridiagonal", _count_eigensolve),
    ("serialize", "warpcrit.serialize", "write_envelope", None),
    ("serialize", "warpcrit.serialize", "write_profile_csv", _count_csv_written),
    ("serialize", "warpcrit.serialize", "read_profile_csv", _count_csv_read),
    ("serialize", "warpcrit.serialize", "profile_from_arrays", None),
]

# Root polishing: bisect_root (warpcrit.support) as bound in each caller.
POLISH = {"warpcrit.profiles": "profiles.root_polish_evals",
          "warpcrit.matching": "matching.root_polish_evals"}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()  # open spans per layer
        self.task = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, layer: str, name: str, fn, count):
        spans, stack, depth = self.spans, self._stack, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                depth[layer] -= 1
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return wrapper

    def _polish(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(x):
                counts[key] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _bytes(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(path, text):
            counts["serialize.bytes_written"] += len(text)  # the formats are ASCII
            return fn(path, text)

        return wrapper

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every warpcrit name bound to ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if modname == "warpcrit" or modname.startswith("warpcrit."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def install(self) -> None:
        for layer, modname, qualname, count in SPANS:
            mod = sys.modules[modname]
            name = "spectrum.eigensolve" if qualname == "eigh_tridiagonal" else f"{layer}.{qualname}"
            if "." not in qualname:
                original = getattr(mod, qualname)
                self._rebind(original, self._span(layer, name, original, count))
                continue
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            member = cls.__dict__[attr]
            if isinstance(member, property):
                self._set(cls, attr, property(self._span(layer, name, member.fget, count)))
            else:
                self._set(cls, attr, self._span(layer, name, member, count))
        for modname, key in POLISH.items():
            mod = sys.modules[modname]
            self._set(mod, "bisect_root", self._polish(key, mod.bisect_root))
        serialize = sys.modules["warpcrit.serialize"]
        self._rebind(serialize.write_text_atomic, self._bytes(serialize.write_text_atomic))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "layer", "start", "end", "parent", "task")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans nest strictly on one thread, so the children of a span cover
    exactly the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, task in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass.

    ``<layer>.<function>_s`` is the time inside calls of that function,
    children included, except ``profiles.integrate_profile_s``, which is
    self time (its integration is ``rk45.integrate_s``).  ``<layer>.self_s``
    is the layer's self time and ``<layer>.share`` its share of task time;
    the shares sum to one.
    """
    own = self_times(tr.spans)
    inside: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    integrate_profile_self = 0.0
    for span, t in zip(tr.spans, own):
        inside[span[0]] += span[3] - span[2]
        by_layer[span[1]] += t
        if span[0] == "profiles.integrate_profile":
            integrate_profile_self += t
    task_time = inside["cli.main"]
    c = tr.counts
    nfev = c["rk45.nfev"]
    attempted = c["rk45.steps_attempted"]
    accepted = c["rk45.steps_accepted"]
    grid = c["curvature.grid_points"]
    out = {
        "cli.main_s": task_time,
        "cli.self_s": by_layer["cli"],
        "cli.tasks": c["cli.tasks"],
        "cli.tasks_failed": c["cli.tasks_failed"],
        "profiles.integrate_profile_s": integrate_profile_self,
        "profiles.find_roots_s": inside["profiles.find_roots"],
        "profiles.theta_s": inside["profiles.Profile.theta"],
        "profiles.extend_base_s": inside["profiles.extend_base"],
        "profiles.root_polish_evals": c["profiles.root_polish_evals"],
        "rk45.integrate_s": inside["rk45.integrate"],
        "rk45.calls": c["rk45.calls"],
        "rk45.nfev": nfev,
        "rk45.steps_accepted": accepted,
        "rk45.steps_rejected": attempted - accepted,
        "rk45.accept_ratio": accepted / attempted if attempted else 0.0,
        "rk45.us_per_fev": 1e6 * inside["rk45.integrate"] / nfev if nfev else 0.0,
        "rk45.dense_points": c["rk45.dense_points"],
        "rk45.dense_eval_s": inside["rk45.DenseSolution.__call__"],
        "matching.match_boundary_s": inside["matching.match_boundary"],
        "matching.c_threshold_s": inside["matching.c_threshold"],
        "matching.improper_integral_s": inside["matching.improper_integral"],
        "matching.root_polish_evals": c["matching.root_polish_evals"],
        "matching.dense_points": c["matching.dense_points"],
        "curvature.verify_critical_s": inside["curvature.verify_critical"],
        "curvature.grid_points": grid,
        "curvature.ns_per_point": 1e9 * inside["curvature.verify_critical"] / grid if grid else 0.0,
        "spectrum.first_dirichlet_eigenvalue_s": inside["spectrum.first_dirichlet_eigenvalue"],
        "spectrum.eigensolve_s": inside["spectrum.eigensolve"],
        "spectrum.eigen_nodes": c["spectrum.eigen_nodes"],
        "spectrum.identity_residual_s": inside["spectrum.identity_residual"],
        "serialize.write_profile_csv_s": inside["serialize.write_profile_csv"],
        "serialize.read_profile_csv_s": inside["serialize.read_profile_csv"],
        "serialize.csv_rows_written": c["serialize.csv_rows_written"],
        "serialize.csv_rows_read": c["serialize.csv_rows_read"],
        "serialize.bytes_written": c["serialize.bytes_written"],
        "serialize.write_envelope_s": inside["serialize.write_envelope"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer]
        out[f"{layer}.share"] = by_layer[layer] / task_time if task_time else 0.0
    # Ratios stay as they are; sums become per-pass figures.
    ratios = {"rk45.accept_ratio", "rk45.us_per_fev", "curvature.ns_per_point"}
    return {k: (v if k in ratios or k.endswith(".share") else v / passes)
            for k, v in out.items()}


# Counters that must repeat exactly for the same seed.
EXACT = (
    "rk45.calls", "rk45.nfev", "rk45.steps_accepted", "rk45.steps_attempted",
    "rk45.dense_points", "profiles.root_polish_evals", "matching.root_polish_evals",
    "matching.dense_points", "curvature.grid_points", "spectrum.eigen_nodes",
    "serialize.csv_rows_written", "serialize.csv_rows_read", "serialize.bytes_written",
    "cli.tasks", "cli.tasks_failed",
)
