"""In-memory span tracing around the specmhd layer boundaries.

The tracer replaces public functions and methods of the solver modules with
wrappers that record one span per call: ``(id, parent, name, start_ns,
end_ns, failed, transforms, points)``.  Nothing under ``src/`` is edited;
``installed`` patches module and class attributes for the length of a
``with`` block and then puts the originals back.  Spans stay in memory
until ``write_csv`` is called.

A span's self time is its duration minus the durations of its direct
children.  The solver is single threaded, so children never overlap and that
difference is exactly the time the children do not cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import Counter
from time import perf_counter_ns

# span tuple fields
ID, PARENT, NAME, START, END, FAILED, TRANSFORMS, POINTS = range(8)

RUN = "harness.run"


def _transform_work(args):
    """(scalar 3-D transforms, transformed points) of one transform call."""
    arr = args[-1]
    g3 = arr.shape[-1] ** 3
    count = 1
    for n in arr.shape[:-3]:
        count *= n
    return count, count * g3


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0, 0, False, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            if work is not None:
                rec[TRANSFORMS], rec[POINTS] = work(args)
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[FAILED] = True
                raise
            finally:
                tracer._close(rec)

        return wrapper

    # ------------------------------------------------------------- patching

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, work))
        else:
            new = self.wrap(name, raw, work)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self, sp, cst, gal, itg, diag, harness) -> None:
        """Wrap every traced boundary; the layer is the span-name prefix."""
        basis_cls = sp.DivFreeSpectralBasis
        ops_cls = gal.GalerkinOperators
        for attr in ("grid_to_spectral", "spectral_to_grid"):
            self.patch(basis_cls, attr, "spectral.transform", _transform_work)
        for attr in ("synth_vector", "synth_scalar"):
            self.patch(basis_cls, attr, "spectral.synth")
        for attr in ("gather_vector", "gather_vector_curl", "gather_strain", "gather_scalar",
                     "gather_scalar_grad"):
            self.patch(basis_cls, attr, "spectral.gather")
        self.patch(sp, "build_basis", "spectral.build_basis")
        for attr in ("stress_tensor", "heat_flux", "thermal_energy", "specific_heat"):
            self.patch(cst, attr, "constitutive.pointwise")
        self.patch(ops_cls, "rates", "galerkin.rates")
        for attr in ("momentum_rhs", "thermal_rhs", "induction_rhs"):
            self.patch(ops_cls, attr, "galerkin.rhs")
        for attr in ("velocity_mass", "thermal_mass"):
            self.patch(ops_cls, attr, "galerkin.mass_assembly")
        self.patch(ops_cls, "solve_mass", "galerkin.mass_solve")
        self.patch(itg, "step", "integrator.step")
        self.patch(itg, "integrate", "integrator.integrate")
        self.patch(gal, "energy_report", "diagnostics.energy_report")
        self.patch(diag.TrajectoryRecorder, "__call__", "diagnostics.record")
        self.patch(harness, "build_initial_state", "initial_conditions.build_state")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, *modules):
        """Trace inside the ``with`` block; the originals are back after it."""
        self.install(*modules)
        try:
            yield self
        finally:
            self.uninstall()

    # --------------------------------------------------------------- output

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,failed,transforms,points\n")
            for s in self.spans:
                fh.write(",".join(str(int(v)) if isinstance(v, bool) else str(v) for v in s) + "\n")


# ------------------------------------------------------------------ analysis


def layer_metrics(spans: list[list], steps: int) -> tuple[dict, dict]:
    """Per-layer metrics and the design-check shares from the recorded spans.

    Only spans inside a ``harness.run`` span count towards per-step figures;
    the set-up repetitions outside any run give the set-up durations.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0] * n
    run_of = [-1] * n
    for s in spans:
        sid, parent = s[ID], s[PARENT]
        if parent >= 0:
            child[parent] += dur[sid]
            run_of[sid] = run_of[parent]
        if s[NAME] == RUN:
            run_of[sid] = sid

    incl, self_ns, calls, failures = Counter(), Counter(), Counter(), Counter()
    transforms = points = 0
    for s in spans:
        sid, name = s[ID], s[NAME]
        if run_of[sid] < 0:
            continue
        incl[name] += dur[sid]
        self_ns[name] += dur[sid] - child[sid]
        calls[name] += 1
        failures[name] += s[FAILED]
        transforms += s[TRANSFORMS]
        points += s[POINTS]

    runs = [s for s in spans if s[NAME] == RUN]
    run_ns = sum(dur[s[ID]] for s in runs)
    setup_names = ("spectral.build_basis", "initial_conditions.build_state")
    # harness.run minus integrate minus set-up: config copy, recorder,
    # summary, CSV and snapshot output
    output_ns = run_ns - sum(
        dur[s[ID]] for s in spans
        if s[NAME] in ("integrator.integrate",) + setup_names and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == RUN
    )

    def per_step_ms(ns: int) -> float:
        return ns / 1e6 / steps

    def durations_s(name: str) -> list[float]:
        return [dur[s[ID]] / 1e9 for s in spans if s[NAME] == name]

    step_ms = [dur[s[ID]] / 1e6 for s in spans if s[NAME] == "integrator.step" and run_of[s[ID]] >= 0]
    rates = calls["galerkin.rates"]
    samples = calls["diagnostics.record"]
    sample_ns = incl["diagnostics.energy_report"] + incl["diagnostics.record"]
    mass_self = self_ns["galerkin.mass_assembly"] + self_ns["galerkin.mass_solve"]

    metrics = {
        "spectral.transforms_per_step": transforms / steps,
        "spectral.transform_points_per_step": points / steps,
        "spectral.transform_ms": per_step_ms(self_ns["spectral.transform"]),
        "spectral.synth_ms": per_step_ms(self_ns["spectral.synth"]),
        "spectral.gather_ms": per_step_ms(self_ns["spectral.gather"]),
        "spectral.basis_build_s": statistics.median(durations_s("spectral.build_basis")),
        "initial_conditions.build_s": statistics.median(durations_s("initial_conditions.build_state")),
        "constitutive.pointwise_ms": per_step_ms(self_ns["constitutive.pointwise"]),
        "galerkin.rates_ms": incl["galerkin.rates"] / 1e6 / max(rates, 1),
        "galerkin.rhs_self_ms": per_step_ms(self_ns["galerkin.rates"] + self_ns["galerkin.rhs"]),
        "galerkin.mass_assembly_ms": per_step_ms(self_ns["galerkin.mass_assembly"]),
        "galerkin.mass_solve_ms": per_step_ms(self_ns["galerkin.mass_solve"]),
        "galerkin.mass_solve_failures": failures["galerkin.mass_solve"],
        "integrator.rhs_evals_per_step": rates / steps,
        "integrator.useful_ratio": steps / rates if rates else 0.0,
        "integrator.step_ms_p50": statistics.median(step_ms),
        "integrator.step_ms_p90": statistics.quantiles(step_ms, n=10, method="inclusive")[-1],
        "integrator.step_samples": len(step_ms),
        "integrator.overhead_ms": per_step_ms(self_ns["integrator.integrate"]),
        "diagnostics.samples": samples / len(runs),
        "diagnostics.sample_ms": sample_ns / 1e6 / max(samples, 1),
        "diagnostics.sample_share": sample_ns / run_ns,
        "harness.output_ms": output_ns / 1e6 / len(runs),
        "spectral.transform_share": self_ns["spectral.transform"] / run_ns,
        "constitutive.pointwise_share": self_ns["constitutive.pointwise"] / run_ns,
        "galerkin.mass_share": mass_self / run_ns,
    }

    # Self time per layer group, as shares of traced run time.  The step
    # groups split the midpoint/RK work; the non-step groups are what a run
    # spends outside ``integrator.step``.
    step_ns = incl["integrator.step"]
    groups = {
        "transform+constitutive": self_ns["spectral.transform"] + self_ns["constitutive.pointwise"],
        "mass assembly+solve": mass_self,
        "synth+gather": self_ns["spectral.synth"] + self_ns["spectral.gather"],
        "galerkin rhs self": self_ns["galerkin.rates"] + self_ns["galerkin.rhs"],
        "integrator self": self_ns["integrator.step"] + self_ns["integrator.integrate"],
        "diagnostics self": self_ns["diagnostics.energy_report"] + self_ns["diagnostics.record"],
    }
    non_step = {
        "sampling": sample_ns,
        "monitors": incl["integrator.integrate"] - step_ns - sample_ns,
        "output": output_ns,
        "setup": sum(incl[k] for k in setup_names),
    }
    shares = {
        "self_time": {k: v / run_ns for k, v in groups.items()},
        "non_step": {k: v / run_ns for k, v in non_step.items()},
    }
    return metrics, shares
