"""Layer spans recorded from outside the package.

The tracer rebinds each layer module's public functions, in every torusgas
namespace that holds them, to wrappers that record a span (name, start, end,
parent, size, tag). Nothing in ``src/`` changes; ``install`` and
``uninstall`` swap the bindings at run time, so untraced blocks run the
original functions. Spans stay in memory in flat arrays and are written once,
at exit. ``cli`` is a thin front end no workload drives, so it is neither
rebound nor measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "theta",
    "geometry",
    "identities",
    "electrostatics",
    "landau",
    "plasma",
    "coulombgas",
    "universality",
    "selftest",
)

# coulombgas functions that build or use the discretized operator; every other
# public coulombgas function is a closed form.
ORACLE = frozenset(
    {
        "mode_matrix",
        "mode_oracle",
        "oracle_leading_magnitudes",
        "mode_logdet",
        "mode_logdet_extrapolated",
        "oracle_log_xi2",
        "kernel_from_fourier",
    }
)
IDENTITY_RESIDUALS = frozenset(
    {"frobenius_residual", "theta_vandermonde_residual", "fourier_det_constant"}
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(v) -> int:
    size = getattr(v, "size", None)   # ndarray or numpy scalar
    if size is not None:
        return int(size)
    return len(v) if isinstance(v, (list, tuple)) else 1


def _points(name: str):
    """Size of the first argument: the number of points a theta call evaluates."""
    return lambda a, k: (_size(_arg(a, k, 0, name)), 0)


def _measures(layer: str, fn):
    """Per-span size and tag recorded at the boundary, or None."""
    if layer == "theta":
        first = next(iter(inspect.signature(fn).parameters))
        if first in ("z", "u"):
            return _points(first)
        return lambda a, k: (1, 0)
    if layer == "plasma" and fn.__name__ == "verify_partition_mc":
        return lambda a, k: (int(_arg(a, k, 1, "samples")), int(_arg(a, k, 0, "geom").N))
    if layer == "coulombgas" and fn.__name__ in ("mode_oracle", "mode_matrix"):
        return lambda a, k: (int(_arg(a, k, 2, "M")), 0)
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.nid = array("i")
        self.size = array("q")
        self.tag = array("i")
        self._stack = [-1]
        self._patches = []
        self._build()

    def _wrap(self, name: str, fn, measure):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, nids, size, tag = (
            self.start, self.end, self.parent, self.nid, self.size, self.tag
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            s, t = measure(args, kwargs) if measure is not None else (0, 0)
            parent.append(stack[-1])
            nids.append(nid)
            size.append(s)
            tag.append(t)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def _build(self):
        package = importlib.import_module("torusgas")
        mods = {layer: importlib.import_module(f"torusgas.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, _measures(layer, obj))
        for ns in (package, *mods.values()):
            for attr, obj in vars(ns).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((ns, attr, obj, wrapped[obj]))

        geo = mods["geometry"]
        tg = geo.TorusGeometry
        for prop in ("nome_WL", "nome_LW"):
            orig = tg.__dict__[prop]
            self._patches.append(
                (tg, prop, orig, property(self._wrap(f"geometry.{prop}", orig.fget, None)))
            )
        for meth in ("canonicalize", "check_distinct"):
            orig = tg.__dict__[meth]
            self._patches.append((tg, meth, orig, self._wrap(f"geometry.{meth}", orig, None)))
        pc = geo.ParticleConfig
        for meth in ("from_raw", "random"):
            orig = pc.__dict__[meth]
            self._patches.append(
                (pc, meth, orig,
                 classmethod(self._wrap(f"geometry.{meth}", orig.__func__, None)))
            )

    def install(self):
        for target, attr, _, new in self._patches:
            setattr(target, attr, new)

    def uninstall(self):
        for target, attr, orig, _ in self._patches:
            setattr(target, attr, orig)

    def arrays(self) -> dict:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name_id": np.frombuffer(self.nid, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "names": np.array(self.names),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def layer_metrics(spans: dict, criteria: dict[str, str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from recorded spans.

    ``criteria`` maps selftest check function names to criterion names.
    Self time is a span's duration minus the durations of its direct children.
    """
    names = list(spans["names"])
    nid = spans["name_id"]
    parent = spans["parent"]
    size = spans["size"]
    tag = spans["tag"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child[: len(dur)]

    layer_of = np.array([n.split(".", 1)[0] for n in names])[nid]
    func_of = np.array([n.split(".", 1)[1] for n in names])[nid]

    def sel(layer, funcs=None):
        m = layer_of == layer
        if funcs is not None:
            m &= np.isin(func_of, list(funcs))
        return m

    def total_s(mask):
        return float(np.sum(dur[mask])) / 1e9

    out: dict[str, tuple[float, str]] = {}

    for layer in LAYERS:
        m = sel(layer)
        out[f"{layer}.calls"] = (int(np.sum(m)), "count")
        out[f"{layer}.self_s"] = (float(np.sum(self_ns[m])) / 1e9, "s")

    th = sel("theta")
    out["theta.points"] = (int(np.sum(size[th])), "count")
    scalar = th & (size == 1)
    out["theta.scalar_call_us"] = (
        float(np.median(dur[scalar])) / 1e3 if np.any(scalar) else 0.0, "us"
    )
    big = th & (size >= 1000)
    out["theta.ns_per_point"] = (
        float(np.sum(dur[big]) / np.sum(size[big])) if np.any(big) else 0.0, "ns"
    )

    out["geometry.nome_builds"] = (int(np.sum(sel("geometry", ("nome_WL", "nome_LW")))), "count")

    mc = sel("plasma", ("verify_partition_mc",))
    for N in (2, 3):
        m = mc & (tag == N)
        out[f"plasma.mc_ns_per_sample_n{N}"] = (
            float(np.sum(dur[m]) / np.sum(size[m])) if np.any(m) else 0.0, "ns"
        )
    quad = sel("plasma", ("verify_partition_quadrature",))
    quad_idx = np.flatnonzero(quad)
    theta1_calls = sel("theta", ("theta1",))
    evals = int(np.sum(theta1_calls & np.isin(parent, quad_idx)))
    out["plasma.quad_evals"] = (evals / len(quad_idx) if len(quad_idx) else 0.0, "count")
    out["plasma.quad_s"] = (total_s(quad), "s")

    oracle = sel("coulombgas", ("mode_oracle",))
    matrix = sel("coulombgas", ("mode_matrix",))
    out["coulombgas.oracle_calls"] = (int(np.sum(oracle)), "count")
    out["coulombgas.oracle_s"] = (total_s(oracle), "s")
    out["coulombgas.matrix_s"] = (total_s(matrix), "s")
    two_m = 2.0 * size[oracle]
    out["coulombgas.oracle_order3"] = (float(np.sum(two_m**3)), "count")
    out["coulombgas.oracle_matrix_bytes"] = (
        float(np.sum(16.0 * (2.0 * size[matrix]) ** 2)), "B"
    )
    closed = sel("coulombgas") & ~np.isin(func_of, list(ORACLE))
    out["coulombgas.closed_calls"] = (int(np.sum(closed)), "count")

    res = sel("identities", IDENTITY_RESIDUALS)
    out["identities.residual_us"] = (
        float(np.median(dur[res])) / 1e3 if np.any(res) else 0.0, "us"
    )

    for fn_name, criterion in criteria.items():
        out[f"selftest.{criterion}_s"] = (total_s(sel("selftest", (fn_name,))), "s")
    out["trace.spans"] = (int(len(dur)), "count")
    return out
