"""The benchmark in bench/ reaches the library by name.  These checks fail
when a rename or a deletion in flowpoly would break it, without running it."""
from __future__ import annotations

import importlib
import inspect
import json
import random
import types
from pathlib import Path

import flowpoly

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads() -> types.ModuleType:
    """bench/workloads.py, compiled from its source so that no bytecode
    cache is written into bench/."""
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


def test_traced_functions_are_defined_in_their_layer():
    """A traced pass fails if a function it expects records no call; each
    one must be a function defined in flowpoly.<layer>."""
    for _, expected in load_workloads().WORKLOADS.values():
        for name in expected:
            layer, func = name.split(".")
            module = importlib.import_module(f"flowpoly.{layer}")
            fn = getattr(module, func, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_planned_jobs_resolve_every_name_they_fetch():
    """Plan every workload and resolve what its jobs fetch by name: the
    graph constructors and degree vectors (in prepare), the library calls,
    and the functions the checks use as their independent route.  What
    they fetch from the package top level must be in flowpoly.__all__."""
    w = load_workloads()
    top_level = set()

    class Recorder:
        def __getattr__(self, name):
            top_level.add(name)
            return getattr(flowpoly, name)

    w.importlib = types.SimpleNamespace(
        import_module=lambda name: Recorder() if name == "flowpoly" else importlib.import_module(name)
    )
    graphs: dict = {}
    for planner, _ in w.WORKLOADS.values():
        for job in planner(random.Random(0)):
            job.prepare(graphs)
            if job.func is not None:
                top_level.add(job.func)
                assert callable(getattr(flowpoly, job.func)), job.label
                assert callable(w.lib("kostant", "kostant"))
            elif isinstance(job, w.VolumeJob):
                assert isinstance(w.closed_form_volume(job.family, job.x, job.y), int)
            elif isinstance(job, w.KostantJob):
                report = json.dumps({"ok": True, "results": {"kostant": None}})
                assert job.check((0, report)).startswith("expected ")
            elif isinstance(job, w.EnumerateJob):
                module, name, _ = job.count
                assert callable(w.lib(module, name)), job.label
    assert {"caracol_k", "v_out", "lattice_points_binomial"} <= top_level
    assert top_level <= set(flowpoly.__all__)
