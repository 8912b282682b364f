"""Tests of the span recorder: absent boundaries, parents, self times."""

import os
import sys
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def _fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    def inner(n):
        time.sleep(0.01)
        return list(range(n))

    def outer(n):
        time.sleep(0.01)
        return module.inner(n)

    class Cube:
        @classmethod
        def build(cls, n):
            return module.outer(n)

    module.inner, module.outer, module.Cube = inner, outer, Cube
    sys.modules[module.__name__] = module
    return module


def test_absent_boundary_is_reported_not_raised():
    recorder = spans.Recorder()
    present = recorder.install([
        spans.Boundary("gone.fn", "perfbench_no_such_module", "fn"),
        spans.Boundary("gone.attr", "os", "no_such_function"),
    ])
    assert present == {"gone.fn": False, "gone.attr": False}
    assert recorder.spans == []


def test_parent_links_and_self_times():
    module = _fake_module()
    recorder = spans.Recorder()
    present = recorder.install([
        spans.Boundary("outer", module.__name__, "outer"),
        spans.Boundary("inner", module.__name__, "inner", spans._rows),
        spans.Boundary("build", module.__name__, "Cube.build"),
    ])
    assert all(present.values())
    assert module.Cube.build(3) == [0, 1, 2]
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] == by_name["build"]["id"]
    assert by_name["build"]["parent"] is None
    assert by_name["inner"]["extra"] == {"rows": 3}
    own = spans.self_times(recorder.spans)
    total = sum(own.values())
    build = by_name["build"]
    assert abs(total - (build["end"] - build["start"])) < 1e-9
    assert own[(build["pid"], build["id"])] < own[(build["pid"], by_name["inner"]["id"])]
