"""Self-time arithmetic and patching of the benchmark's span tracer."""

import itertools
import sys
import types

import pytest

from spantrace import Tracer, self_times


def ticking_clock():
    """A clock that advances by exactly 1 on every reading."""
    return itertools.count(1).__next__


def test_self_times_subtract_children_once():
    # root [0, 10] with children [1, 4] and [5, 9]; [2, 3] nests in the first
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_merge_overlap_and_clip_to_parent():
    # overlapping children [1, 5] and [3, 8] cover [1, 8]; a child reaching
    # past its parent's end is clipped to it
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 8.0, 12.0]
    parent = [-1, 0, 0, 0]
    own = self_times(start, end, parent)
    assert own[0] == 10.0 - 7.0 - 1.0


def test_recursion_through_the_wrapper():
    tracer = Tracer(clock=ticking_clock(), path_roots=("ns.walk",))
    ns = types.SimpleNamespace()

    def walk(n):
        if n > 0:
            ns.walk(n - 1)      # recursive call goes back through the wrapper
        return n

    ns.walk = tracer.wrap(walk, "ns.walk")
    assert tracer.wrap(ns.walk, "root")(2) == 2

    # root spans 1..8, walk(2) 2..7, walk(1) 3..6 and walk(0) 4..5 (each span
    # reads the clock on open and close)
    assert list(tracer.start) == [1.0, 2.0, 3.0, 4.0]
    assert list(tracer.end) == [8.0, 7.0, 6.0, 5.0]
    assert self_times(tracer.start, tracer.end, tracer.parent) == [2.0, 2.0, 2.0, 1.0]
    summary = tracer.summary()
    assert summary["calls"] == {"root": 1, "ns.walk": 3}
    assert summary["self_s"] == {"root": 2.0, "ns.walk": 5.0}
    assert summary["self_sum_s"] == summary["root_s"] == 7.0
    # the outermost walk starts the only path; the root span is outside it
    assert list(tracer.path) == [-1, 0, 0, 0]
    assert summary["n_paths"] == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=ticking_clock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(tracer.wrap(boom, "boom"), "root")()
    assert tracer.summary()["self_sum_s"] == tracer.summary()["root_s"] == 3.0
    assert tracer._stack == []


@pytest.fixture
def fake_package(monkeypatch):
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def helper(x):
        return x + 1

    class Thing:
        def method(self):
            return core.helper(1)     # a module global lookup

        @classmethod
        def build(cls):
            return cls()

    core.helper = helper
    core.Thing = Thing
    user.helper = helper            # bound by name, as "from core import helper"
    user.use = lambda: user.helper(0)
    monkeypatch.setitem(sys.modules, "fakepkg.core", core)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return core, user


def test_install_patches_every_binding_and_restore_undoes_it(fake_package):
    core, user = fake_package
    originals = (core.helper, core.Thing.__dict__["method"],
                 core.Thing.__dict__["build"])
    tracer = Tracer()
    tracer.install(["fakepkg.core:helper", "fakepkg.core:Thing.method",
                    "fakepkg.core:Thing.build", "fakepkg.core:gone"],
                   [core, user])
    assert core.helper is not originals[0] and user.helper is core.helper
    assert user.use() == 1
    assert core.Thing.build().method() == 2
    calls = tracer.summary()["calls"]
    assert calls == {"core.helper": 2, "core.Thing.method": 1,
                     "core.Thing.build": 1}
    assert tracer.absent == ["core.gone"]

    tracer.restore()
    assert core.helper is originals[0] and user.helper is originals[0]
    assert core.Thing.__dict__["method"] is originals[1]
    assert core.Thing.__dict__["build"] is originals[2]


def test_count_adds_calls_and_points_then_restores():
    mod = types.SimpleNamespace(work=lambda a, scale=1: len(a) * scale)
    original = mod.work
    tracer = Tracer()
    tracer.count(mod, ("work", "missing"), "k", size=len)
    assert mod.work([1, 2, 3], scale=2) == 6
    mod.work([1])
    assert tracer.counters == {"k.calls": 2, "k.points": 4}
    tracer.restore()
    assert mod.work is original


def test_levyflow_targets_patch_every_binding_and_restore():
    levyflow = pytest.importorskip("levyflow")
    from levyflow import cli, cutoffs, diagnostics, noise, solver, spaces

    from workloads import LAYER_TARGETS

    modules = [m for n, m in sys.modules.items()
               if n == "levyflow" or n.startswith("levyflow.")]
    before = {id(ns): dict(vars(ns)) for ns in modules}
    factor = cutoffs.Cutoff.__dict__["factor"]
    from_states = spaces.PathSegment.__dict__["from_states"]
    tracer = Tracer()
    tracer.install(LAYER_TARGETS, modules)
    try:
        assert tracer.absent == []
        # bound by name in other modules, and reached through the wrapper
        assert solver.jump_coefficient is noise.jump_coefficient
        assert diagnostics.jump_coefficient is noise.jump_coefficient
        assert cli.load_config is levyflow.config.load_config
        assert noise.jump_coefficient.__wrapped__ is before[id(noise)]["jump_coefficient"]
        assert cutoffs.Cutoff.__dict__["factor"] is not factor
        assert cutoffs.Cutoff(level=1.0, budget=1.0).factor(0.5, 0.5) == 1.0
        assert spaces.PathSegment.__dict__["from_states"] is not from_states
    finally:
        tracer.restore()
    assert tracer.summary()["calls"]["cutoffs.Cutoff.factor"] == 1
    for ns in modules:
        now = vars(ns)
        assert now.keys() == before[id(ns)].keys()
        assert all(now[k] is v for k, v in before[id(ns)].items()), ns.__name__
    assert cutoffs.Cutoff.__dict__["factor"] is factor
    assert spaces.PathSegment.__dict__["from_states"] is from_states
