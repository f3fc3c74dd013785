"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench

The last three tests run tiny workloads end to end (about a minute and a
half in all).
"""

from __future__ import annotations

import sys
import time
import types
from dataclasses import replace

import pytest

import bench
import tracer as tr
from observer import LoopObserver, lines_calling


def spans_of(*rows):
    return [tr.Span(name, parent, start, end, tag=tag) for name, parent, start, end, tag in rows]


# -- span arithmetic -------------------------------------------------------------


def test_self_time_subtracts_the_part_children_cover():
    spans = spans_of(
        ("root", -1, 0, 100, None),
        ("a", 0, 10, 30, None),
        ("b", 0, 40, 70, None),
        ("b.inner", 2, 45, 55, None),
        ("root2", -1, 200, 210, None),
    )
    assert tr.self_times(spans) == [50, 20, 20, 10, 10]


def test_self_time_clips_children_to_the_parent():
    spans = spans_of(("p", -1, 10, 20, None), ("c", 0, 5, 15, None), ("d", 0, 15, 30, None))
    assert tr.self_times(spans)[0] == 0


def test_distinct_share_counts_equal_inputs_once_per_scope():
    spans = spans_of(
        ("objectives.training_step", -1, 0, 10, "caption"),
        ("model.encode_image", 0, 1, 2, b"x"),
        ("model.encode_image", 0, 2, 3, b"x"),
        ("model.encode_image", 0, 3, 4, b"y"),
        ("objectives.training_step", -1, 10, 20, "caption"),
        ("model.encode_image", 4, 11, 12, b"x"),
    )
    # x and y in the first step, x again in the second (new weights): 3 of 4
    assert tr.distinct_share(spans, "model.encode_image") == pytest.approx(3 / 4)
    assert tr.distinct_share(spans, "model.fuse") == 0.0


def test_tape_position_reads_the_counter_without_advancing_it():
    import itertools

    counter = itertools.count(41)
    next(counter)
    assert tr.tape_position(counter) == 42
    assert tr.tape_position(counter) == 42
    assert next(counter) == 42


# -- patching --------------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.a defines outer -> inner; pkg.b imported inner by name."""
    import itertools

    pkg, tensor, a, b = (types.ModuleType(n) for n in ("pkg", "pkg.tensor", "pkg.a", "pkg.b"))
    for module in (pkg, tensor, a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    pkg.tensor = tensor
    tensor._SEQ = itertools.count()
    exec("import pkg.tensor as t\n"
         "def inner(n):\n    next(t._SEQ)\n    return n + 1\n"
         "def outer(n):\n    return inner(n) + inner(n)\n", a.__dict__)
    b.inner = a.inner
    return a, b


def test_wrappers_patch_every_binding_nest_and_restore(fake_package):
    a, b = fake_package
    originals = (a.outer, a.inner)
    tracer = tr.Tracer(package="pkg", targets=(("a", "outer", "a.outer"),
                                               ("a", "inner", "a.inner")))
    with tracer:
        assert tr.is_wrapper(a.inner) and tr.is_wrapper(b.inner) and tr.is_wrapper(a.outer)
        assert a.outer(1) == 4
        assert b.inner(5) == 6
    assert (a.outer, a.inner, b.inner) == (originals[0], originals[1], originals[1])
    names = [(s.name, s.parent, s.nodes) for s in tracer.spans]
    assert names == [("a.outer", -1, 2), ("a.inner", 0, 1), ("a.inner", 0, 1),
                     ("a.inner", -1, 1)]
    outer, first, second, _ = tracer.spans
    assert outer.start <= first.start <= first.end <= second.start <= second.end <= outer.end


def test_finegrain_bindings_imported_by_name_are_patched_and_restored():
    from finegrain import evalharness, model, objectives, runner, synthdata

    originals = (runner.training_step, runner.save_checkpoint, runner.load_checkpoint,
                 evalharness.generate_scene, model.VLModel.__dict__["encode_image"])
    with tr.Tracer():
        assert all(tr.is_wrapper(f) for f in (
            runner.training_step, objectives.training_step, runner.save_checkpoint,
            model.save_checkpoint, runner.load_checkpoint, evalharness.generate_scene,
            synthdata.generate_scene, model.VLModel.__dict__["encode_image"]))
        assert len(tr.wrapped_bindings()) >= len(tr.TARGETS)
    assert tr.wrapped_bindings() == []
    assert (runner.training_step, runner.save_checkpoint, runner.load_checkpoint,
            evalharness.generate_scene, model.VLModel.__dict__["encode_image"]) == originals


# -- the loop observer -----------------------------------------------------------


def _marker():
    time.sleep(0.01)


def _loop():
    for step in range(1, 6):
        time.sleep(0.02)
        _marker()


def test_loop_observer_times_iterations_up_to_the_marked_line():
    with LoopObserver(_loop.__code__, "step", lines_calling(_loop.__code__, "_marker")) as obs:
        _loop()
    iterations = obs.iterations()
    assert [it.value for it in iterations] == [1, 2, 3, 4, 5]
    for it in iterations:
        assert 0.015 < it.end - it.start < 0.03


# -- whole runs on a tiny spec ---------------------------------------------------


def tiny(workload: str) -> bench.Spec:
    spec = bench.make_spec(workload, seed=3, seconds=1)
    return replace(spec, steps=6, cadence=2, eval_per_subtask=1, retrieval_count=2,
                   dense_retrieval=3 if spec.dense_retrieval else 0, repeats=1,
                   training_runs=1)


def test_untraced_run_executes_unpatched_functions(tmp_path):
    from finegrain import model, objectives, runner

    with tr.Tracer():
        pass
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    check = bench.Checker(None)
    sys.setprofile(profile)
    try:
        bench.run_phases(tiny("retrieval_dense"), tmp_path, check, 1)
    finally:
        sys.setprofile(None)
    assert tr._WRAPPER_CODE not in called
    for fn in (runner.run_training, runner.run_eval, objectives.training_step,
               model.VLModel.encode_image, model.save_checkpoint):
        assert fn.__code__ in called
    assert check.failed == 0


def test_each_score_outside_the_unit_interval_fails_its_pair(tmp_path, monkeypatch):
    from finegrain import evalharness

    spec = tiny("retrieval_dense")
    pairs = spec.pairs_per_checkpoint()
    _, run_dir = bench.run_phases(spec, tmp_path, bench.Checker(None), 1)
    clean = bench.Checker(None)
    digests = bench.audit_scores(spec, run_dir, clean)
    assert (clean.attempted, clean.failed) == (pairs + 1, 0)

    model_scorer = evalharness.model_scorer
    monkeypatch.setattr(evalharness, "model_scorer", lambda model: lambda scene, text: 1.5)
    check = bench.Checker(None)
    bench.audit_scores(spec, run_dir, check)
    assert check.failed == pairs

    # in range, but not the reference's scores: the digest catches it
    monkeypatch.setattr(evalharness, "model_scorer",
                        lambda model: lambda scene, text: model_scorer(model)(scene, text) ** 2)
    check = bench.Checker({"scores": digests})
    bench.audit_scores(spec, run_dir, check)
    assert (check.attempted, check.failed) == (pairs + 1, 1)


EXACT = ("tensor.nodes_per_caption_step", "tensor.nodes_per_detection_step",
         "tensor.nodes_per_pair", "evalharness.scored_pairs",
         "model.encode_image.distinct_share", "model.encode_text.distinct_share")


def test_exact_counts_repeat_across_runs_at_one_seed(tmp_path):
    spec = tiny("dynamics_sweep")
    traced = [bench.run(spec, True, tmp_path / f"t{i}")["metrics"] for i in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if k in EXACT or k.endswith(".calls")}
              for m in traced]
    assert counts[0] == counts[1]
    assert counts[0]["evalharness.scored_pairs"] == 3 * spec.pairs_per_checkpoint()
    assert counts[0]["tensor.nodes_per_caption_step"] > 0
    plain = [bench.run(spec, False, tmp_path / f"p{i}") for i in range(2)]
    assert plain[0]["metrics"]["ckpt_bytes"] == plain[1]["metrics"]["ckpt_bytes"]
    assert plain[0]["attempted"] == plain[1]["attempted"] and plain[0]["failed"] == 0
