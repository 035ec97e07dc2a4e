"""The benchmark's tracer wraps named joinstate functions; renaming or
deleting one breaks the traced benchmark.  These tests catch that in the
ordinary test run.  `bench/tracer.py` imports only the standard library,
so it is loaded by path, without the benchmark's own set-up."""

import importlib
import importlib.util
import pathlib

import joinstate.checker
import joinstate.runtime

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves():
    boundaries = load_tracer().BOUNDARIES
    assert boundaries
    for module_name, qualname, _, _ in boundaries:
        home = importlib.import_module(f"joinstate.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(home, cls_name)), qualname
        else:
            assert callable(getattr(home, qualname, None)), qualname


def test_runtime_imports_the_checkers_closure_typing():
    # The tracer patches every module that bound the function, so the
    # runtime must hold the checker's own, not a copy or a wrapper.
    assert (
        joinstate.runtime.resolve_closure_types
        is joinstate.checker.resolve_closure_types
    )
