"""Span recording for the traced run, installed from outside the library.

``install()`` wraps every public function and public method of the library
modules, in every module namespace that binds it (``convolution_constant``
is bound in ``locality`` and ``qbp``, ``measure_gamma`` in ``profiles`` and
``chain``), plus ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh`` as the
kernel layer.  Each call appends one span ``[id, parent, name, start, end,
extra]`` to an in-memory list; the child writes the list when the run ends.
The process is single-threaded, so a plain stack gives each span's parent.

``derive()`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYER_MODULES = (
    "profiles", "chain", "opalg", "locality", "qbp", "cluster", "oracles",
    "experiments", "csvio",
)

# kernel dimensions reported on their own; every other size lands in "dother"
KERNEL_DIMS = (64, 512, 1024)
KERNELS = ("eigh", "eigvalsh")

TERM_ASSEMBLY = (
    "chain.ChainHamiltonian.matrix", "chain.ChainHamiltonian.subset_matrix",
    "chain.TruncatedHamiltonian.matrix", "chain.TruncatedHamiltonian.bond_matrix",
    "chain.TruncatedHamiltonian.delta_matrix", "chain.CenterDecomposition.bond_matrix",
    "chain.bundle_matrix",
)


class Recorder:
    """In-memory span list with the stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [sid, parent, name, time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
                if extra is not None:
                    span[5] = extra(args, kwargs, out)
                return out
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()

        return traced


def _kernel_extra(args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    return [int(a.shape[-1]), "complex" if a.dtype.kind == "c" else "real"]


def _build_bp_extra(fn):
    sig = inspect.signature(fn)

    def extra(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return [int(bound.arguments["tau_steps"]), int(out.tau_steps)]

    return extra


def install(recorder):
    """Patch the library and numpy.linalg in place; returns the wrap count."""
    import numpy as np

    modules = {m: importlib.import_module(f"gibbschain.{m}") for m in LAYER_MODULES}
    wrapped = {}
    for mod_name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                extra = _build_bp_extra(obj) if f"{mod_name}.{attr}" == "qbp.build_bp" else None
                wrapped[obj] = recorder.wrap(f"{mod_name}.{attr}", obj, extra)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, recorder.wrap(f"{mod_name}.{attr}.{meth}", fn))
    # rebind every namespace that holds a wrapped function, not only its home module
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for kernel in KERNELS:
        setattr(np.linalg, kernel,
                recorder.wrap(f"kernel.{kernel}", getattr(np.linalg, kernel), _kernel_extra))
    return len(wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics


def metric_names():
    """Every per-layer metric ``derive`` emits, with its unit, in a fixed order."""
    names = []
    for k in KERNELS:
        names += [(f"kernel.{k}.calls", "count"), (f"kernel.{k}.s", "s")]
        for d in [f"d{d}" for d in KERNEL_DIMS] + ["dother"]:
            for dtype in ("real", "complex"):
                names += [(f"kernel.{k}.{d}.{dtype}.calls", "count"),
                          (f"kernel.{k}.{d}.{dtype}.s", "s")]
    names.append(("kernel.diag_dim3_sum", "1e9"))
    names += [("opalg.hermitian_eig.calls", "count"), ("opalg.hermitian_eig.self_s", "s"),
              ("opalg.spectrum_reuse_ratio", "ratio")]
    for f in ("herm_expm", "embed_matrix", "herm_defect", "opnorm", "gibbs", "evolve"):
        names += [(f"opalg.{f}.calls", "count"), (f"opalg.{f}.self_s", "s")]
    names += [("chain.build_chain.total_s", "s"), ("chain.truncate.total_s", "s"),
              ("chain.term_assembly.calls", "count"), ("chain.term_assembly.self_s", "s")]
    names += [("qbp.filter_quadrature.calls", "count"), ("qbp.filter_quadrature.total_s", "s"),
              ("qbp.spectral_filter.calls", "count"), ("qbp.spectral_filter.self_s", "s"),
              ("qbp.spectral_filter_direct.calls", "count"),
              ("qbp.spectral_filter_direct.self_s", "s"),
              ("qbp.build_bp.calls", "count"), ("qbp.build_bp.total_s", "s"),
              ("qbp.build_bp.self_s", "s"), ("qbp.tau_steps", "count"),
              ("qbp.refinements", "count"), ("qbp.diag_per_phi_build", "count"),
              ("qbp.diag_per_tau_step", "count"),
              ("qbp.reconstruction_residual.total_s", "s"),
              ("qbp.bp_locality_error.total_s", "s")]
    names += [("locality.lr_certify.total_s", "s"), ("locality.lr_certify.self_s", "s"),
              ("locality.subset_evolution_error.total_s", "s"),
              ("locality.convolution_constant.total_s", "s")]
    names += [("cluster.gamma_pair.total_s", "s"), ("cluster.gamma_pair.self_s", "s"),
              ("cluster.PsiOperator.expectation.calls", "count"),
              ("cluster.PsiOperator.expectation.self_s", "s")]
    names += [("profiles.measure_gamma.total_s", "s"),
              ("oracles.fit_exponential_decay.total_s", "s"),
              ("experiments.run_experiment.total_s", "s"), ("csvio.write_csv.total_s", "s")]
    names += [("trace.spans", "count"), ("trace.overhead_s", "s")]
    return names


def _dim_label(dim):
    return f"d{dim}" if dim in KERNEL_DIMS else "dother"


def derive(spans, overhead_s):
    """Per-layer metrics {name: value} from a span list."""
    by_id = {s[0]: s for s in spans}
    dur = {s[0]: s[4] - s[3] for s in spans}
    self_t = dict(dur)
    for s in spans:
        if s[1] >= 0:
            self_t[s[1]] -= dur[s[0]]

    def has_ancestor(span, name):
        p = span[1]
        while p >= 0:
            if by_id[p][2] == name:
                return True
            p = by_id[p][1]
        return False

    def outermost(name):
        """Spans of ``name`` not nested in another span of the same name."""
        return [s for s in spans if s[2] == name and not has_ancestor(s, name)]

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def self_s(names):
        return sum(self_t[s[0]] for s in spans if s[2] in names)

    def total_s(name):
        return sum(dur[s[0]] for s in outermost(name))

    out = {name: 0.0 for name, _ in metric_names()}
    # a call that raised has no extra: it counts as a span, not as a kernel call or build
    kernels = [s for s in spans if s[2].startswith("kernel.") and s[5]]
    for s in kernels:
        k = s[2].split(".")[1]
        dim, dtype = s[5]
        out[f"kernel.{k}.calls"] += 1
        out[f"kernel.{k}.s"] += dur[s[0]]
        out[f"kernel.{k}.{_dim_label(dim)}.{dtype}.calls"] += 1
        out[f"kernel.{k}.{_dim_label(dim)}.{dtype}.s"] += dur[s[0]]
        out["kernel.diag_dim3_sum"] += dim**3 / 1e9

    herm = calls("opalg.hermitian_eig")
    out["opalg.hermitian_eig.calls"] = herm
    out["opalg.hermitian_eig.self_s"] = self_s({"opalg.hermitian_eig"})
    fresh = sum(1 for s in kernels
                if s[2] == "kernel.eigh" and has_ancestor(s, "opalg.hermitian_eig"))
    out["opalg.spectrum_reuse_ratio"] = 1.0 - fresh / herm if herm else 0.0
    for f in ("herm_expm", "embed_matrix", "herm_defect", "opnorm", "gibbs", "evolve"):
        out[f"opalg.{f}.calls"] = calls(f"opalg.{f}")
        out[f"opalg.{f}.self_s"] = self_s({f"opalg.{f}"})

    out["chain.build_chain.total_s"] = total_s("chain.build_chain")
    out["chain.truncate.total_s"] = total_s("chain.truncate")
    out["chain.term_assembly.calls"] = sum(calls(n) for n in TERM_ASSEMBLY)
    out["chain.term_assembly.self_s"] = self_s(set(TERM_ASSEMBLY))

    out["qbp.filter_quadrature.calls"] = calls("qbp.filter_quadrature")
    out["qbp.filter_quadrature.total_s"] = total_s("qbp.filter_quadrature")
    for f in ("spectral_filter", "spectral_filter_direct"):
        out[f"qbp.{f}.calls"] = calls(f"qbp.QuadratureScheme.{f}")
        out[f"qbp.{f}.self_s"] = self_s({f"qbp.QuadratureScheme.{f}"})
    builds = [s for s in spans if s[2] == "qbp.build_bp" and s[5]]
    out["qbp.build_bp.calls"] = len(builds)
    out["qbp.build_bp.total_s"] = total_s("qbp.build_bp")
    out["qbp.build_bp.self_s"] = self_s({"qbp.build_bp"})
    steps = sum(s[5][1] for s in builds)
    # each refinement doubles tau_steps
    out["qbp.refinements"] = sum(
        round(math.log2(s[5][1] / s[5][0])) for s in builds if s[5][0]
    )
    diag_in_builds = sum(1 for s in kernels if has_ancestor(s, "qbp.build_bp"))
    out["qbp.tau_steps"] = steps
    out["qbp.diag_per_phi_build"] = diag_in_builds / len(builds) if builds else 0.0
    out["qbp.diag_per_tau_step"] = diag_in_builds / steps if steps else 0.0
    out["qbp.reconstruction_residual.total_s"] = total_s("qbp.reconstruction_residual")
    out["qbp.bp_locality_error.total_s"] = total_s("qbp.bp_locality_error")

    out["locality.lr_certify.total_s"] = total_s("locality.lr_certify")
    out["locality.lr_certify.self_s"] = self_s({"locality.lr_certify"})
    out["locality.subset_evolution_error.total_s"] = total_s("locality.subset_evolution_error")
    out["locality.convolution_constant.total_s"] = total_s("locality.convolution_constant")

    out["cluster.gamma_pair.total_s"] = total_s("cluster.gamma_pair")
    out["cluster.gamma_pair.self_s"] = self_s({"cluster.gamma_pair"})
    out["cluster.PsiOperator.expectation.calls"] = calls("cluster.PsiOperator.expectation")
    out["cluster.PsiOperator.expectation.self_s"] = self_s({"cluster.PsiOperator.expectation"})

    out["profiles.measure_gamma.total_s"] = total_s("profiles.measure_gamma")
    out["oracles.fit_exponential_decay.total_s"] = total_s("oracles.fit_exponential_decay")
    out["experiments.run_experiment.total_s"] = total_s("experiments.run_experiment")
    out["csvio.write_csv.total_s"] = total_s("csvio.write_csv")

    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = overhead_s
    return out
