"""Tests of the benchmark's own checkers and tracer (fast; no CLI runs)."""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def _carnot_stdout(**changes):
    record = dict(checks.REFERENCE["check-carnot"], name="carnot-step2", witness=None)
    record.update(changes)
    return checks.json.dumps(record, indent=2, sort_keys=True) + "\n"


def _sweep_stdout(perturb=None):
    lines = ["eps,i,lambda,residual,multiplicity_cluster"]
    for row, (eps, i, lam, cluster) in enumerate(checks.REFERENCE["sweep-contact"]):
        if row == perturb:
            lam += 1e-6
        lines.append("%s,%d,%r,%r,%d" % (eps, i, lam, 1e-14, cluster))
    return "\n".join(lines) + "\n"


def _verify_stdout(fail=None):
    lines = []
    for status, name in checks.REFERENCE["verify-contact"]:
        if name == fail:
            status = "FAIL"
        lines.append("%s %s (detail)" % (status, name))
    lines.append("1 item(s) failed" if fail else "all items passed")
    return "\n".join(lines) + "\n"


def test_checkers_accept_reference_outputs():
    assert checks.check_carnot(_carnot_stdout()) == []
    assert checks.check_sweep(_sweep_stdout()) == []
    assert checks.check_verify(_verify_stdout()) == []


def test_checker_rejects_changed_flag_dims():
    problems = checks.check_carnot(_carnot_stdout(flag_dims=[3, 5, 6]))
    assert problems and "flag_dims" in problems[0]


def test_checker_rejects_perturbed_eigenvalue():
    problems = checks.check_sweep(_sweep_stdout(perturb=9))
    assert len(problems) == 1 and "lambda" in problems[0]


def test_checker_tolerates_round_off_in_eigenvalues():
    text = _sweep_stdout().replace("0.4561863076740682", "0.4561863076740685")
    assert checks.check_sweep(text) == []


def test_checker_rejects_fail_line():
    assert checks.check_verify(_verify_stdout(fail="kernel-dimension"))
    text = _verify_stdout().replace("PASS kernel-dimension", "FAIL kernel-dimension")
    assert checks.check_verify(text)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package():
    """A package ``fakepkg`` whose module ``a`` nests and recurses."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.a")
    src = (
        "def inner():\n"
        "    clock.now += 5.0\n"
        "def outer():\n"
        "    clock.now += 1.0\n"
        "    inner()\n"
        "    clock.now += 2.0\n"
        "def countdown(n):\n"
        "    clock.now += 1.0\n"
        "    if n:\n"
        "        countdown(n - 1)\n"
    )
    mod.clock = clock
    exec(compile(src, "fakepkg/a.py", "exec"), mod.__dict__)
    for name in ("inner", "outer", "countdown"):
        getattr(mod, name).__module__ = "fakepkg.a"
        setattr(pkg, name, getattr(mod, name))
    pkg.__all__ = ["inner", "outer", "countdown", "Thing"]
    pkg.Thing = type("Thing", (), {})
    sys.modules["fakepkg"] = pkg
    sys.modules["fakepkg.a"] = mod
    try:
        yield pkg, mod, clock
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.a"]


def test_self_time_of_nested_calls(fake_package):
    pkg, mod, clock = fake_package
    tracer = Tracer(clock=clock)
    tracer.install(pkg)
    mod.outer()
    mod.countdown(2)
    tracer.uninstall()
    fns = tracer.report()["functions"]
    assert fns["a.outer"] == {"calls": 1, "s": 8.0, "self_s": 3.0}
    assert fns["a.inner"] == {"calls": 1, "s": 5.0, "self_s": 5.0}
    # recursion: inclusive time counts the outermost call once
    assert fns["a.countdown"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert tracer.report()["layers"]["a"] == 11.0


def test_wrapper_cost_is_taken_off_the_callers(fake_package):
    pkg, mod, clock = fake_package
    tracer = Tracer(clock=clock, call_cost=0.5)
    tracer.install(pkg)
    mod.outer()
    tracer.uninstall()
    fns = tracer.report()["functions"]
    # outer's window holds inner's 5 s plus 0.5 s of inner's wrapper
    assert fns["a.outer"] == {"calls": 1, "s": 7.5, "self_s": 2.5}
    assert fns["a.inner"] == {"calls": 1, "s": 5.0, "self_s": 5.0}
    assert tracer.report()["layers"]["a"] == 7.5


def test_measured_call_cost_is_small_and_not_negative():
    assert 0.0 <= Tracer.measure_call_cost(calls=1000) < 1e-3


def test_uninstall_restores_every_binding(fake_package):
    pkg, mod, clock = fake_package
    original = mod.inner
    tracer = Tracer(clock=clock)
    tracer.install(pkg, names=["inner"])
    assert mod.inner is pkg.inner and mod.inner is not original
    tracer.uninstall()
    assert mod.inner is original and pkg.inner is original


def test_name_missing_from_all_is_skipped():
    import srlab
    import srlab.cli
    import srlab.geometry

    original = srlab.geometry.hormander_flag
    tracer = Tracer()
    names = ["hormander_flag", "evaluate", "householder_tridiagonalize", "no_such_name"]
    tracer.install(srlab, names=names)
    try:
        assert tracer.missing == ["householder_tridiagonalize", "no_such_name"]
        # every `from .x import y` copy is rebound, not just the defining module
        assert srlab.cli.hormander_flag is srlab.geometry.hormander_flag
        assert srlab.geometry.hormander_flag is not original
        assert srlab.geometry.evaluate is srlab.expr.evaluate is srlab.evaluate
        s, _density = srlab.cli.build_structure(srlab.cli.load_config("heisenberg"))
        assert srlab.cli.hormander_flag(s, [0.0, 0.0, 0.0]).dims == (2, 3)
    finally:
        tracer.uninstall()
    assert srlab.geometry.hormander_flag is original
    fns = tracer.report()["functions"]
    assert fns["geometry.hormander_flag"]["calls"] == 1
    assert fns["expr.evaluate"]["calls"] > 0
