"""The names and code shapes the benchmark in perfbench/ relies on.

perfbench traces finegrain from outside: it wraps the functions listed in
`tracer.TARGETS` wherever they are bound, and times training steps by
reading `run_training`'s `step` variable and its `save_checkpoint` call
line.  A rename here breaks the benchmark without failing any other test,
so this fast check reads the benchmark's own tables without running it.
"""

import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

from finegrain import evalharness, model, runner

from support import micro_config, tiny_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER = load_perfbench("tracer")


def load_bench():
    """perfbench's bench.py, which imports its sibling modules by their plain names."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return load_perfbench("bench")
    finally:
        sys.path.remove(str(PERFBENCH))

# names perfbench's runner and tests read directly, besides the traced ones
READ_DIRECTLY = (
    ("runner", "checkpoint_path"),
    ("runner", "training_step"),
    ("runner", "save_checkpoint"),
    ("runner", "load_checkpoint"),
    ("evalharness", "generate_scene"),
    ("evalharness", "default_manifest"),
    ("evalharness", "FOIL_GROUP_SUBTASKS"),
    ("evalharness", "PAIRWISE_SUBTASKS"),
    ("evalharness", "THRESHOLD_SUBTASK"),
    ("model", "CHECKPOINT_MAGIC"),
    ("model", "CHECKPOINT_VERSION"),
    ("model", "param_shapes"),
    ("tensor", "_SEQ"),
    ("config", "RunConfig.model_config"),
)


@pytest.mark.parametrize(
    "module,path", [(m, p) for m, p, _ in TRACER.TARGETS] + list(READ_DIRECTLY))
def test_benchmark_name_resolves(module, path):
    owner = importlib.import_module(f"finegrain.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"finegrain.{module} has no {path}"
        owner = getattr(owner, part)


def test_run_training_keeps_the_observed_loop_shape():
    observer = load_perfbench("observer")
    code = inspect.unwrap(runner.run_training).__code__
    assert "step" in code.co_varnames
    assert observer.lines_calling(code, "save_checkpoint")


def test_traced_arguments_sit_where_the_tracer_reads_them(tmp_path):
    # the tracer tags spans from positional arguments: the batch of a training
    # step, the grid stack and token mask of an image encode and the ids of a
    # text encode.  Every batch of encode_images is one encode_image call, so
    # the image encode spans come from the run.  Training and the eval scorer
    # encode texts in batches through encode_texts, which is not traced, so
    # nothing in a run calls encode_text; its tag is read from one direct call
    config = tiny_config(steps=3, eval_per_subtask=1, retrieval_count=2)
    with TRACER.Tracer() as tracer:
        runner.run_training(config, tmp_path)
        runner.run_eval(config, runner.checkpoint_path(tmp_path, 3), tmp_path)
        model.VLModel(config, seed=config.seed).encode_text(
            config.vocab.encode_wrapped("a red circle"))

    def tags(name):
        found = [span.tag for span in tracer.spans if span.name == name]
        assert found, name
        return found

    assert set(tags("objectives.training_step")) == {"caption", "detection"}
    assert all(type(tag) is tuple for tag in tags("model.encode_text"))
    assert all(type(tag) is bytes for tag in tags("model.encode_image"))
    assert TRACER.wrapped_bindings() == []


def test_eval_calls_keep_the_benchmark_shapes(tmp_path):
    # the score audit calls run_benchmark with a recording scorer and counts one
    # call per pair; retrieval_dense times run_eval on a retrieval-only manifest
    config = tiny_config(steps=3, eval_per_subtask=20, retrieval_count=8)  # the default eval
    runner.run_training(config, tmp_path)
    ckpt = runner.checkpoint_path(tmp_path, 3)
    scored_model = model.VLModel(config.model_config(), seed=config.seed)
    model.load_checkpoint(scored_model, ckpt, expect_hash=config.config_hash())
    scorer = evalharness.model_scorer(scored_model)
    calls = []

    def recorded(scene, text):
        calls.append(text)
        return scorer(scene, text)

    manifest = evalharness.default_manifest(eval_seed=900, per_subtask=2, grid_size=2,
                                            retrieval_count=3)
    report = evalharness.run_benchmark(recorded, manifest, checkpoint_step=3)
    assert report.checkpoint_step == 3
    # 8 subtasks of 2 cells and one of 4, 2 items each, and a 3 x 3 table
    assert len(calls) == 8 * 2 * 2 + 4 * 2 + 3 * 3

    dense = {"grid_size": config.patch_grid, "subtasks": [],
             "retrieval": {"seed": config.eval_seed, "count": 3}}
    runner.run_eval(config, ckpt, tmp_path, manifest=dense)
    written = json.loads((tmp_path / "reports" / "eval_step_000003.json").read_text())
    assert set(written["metrics"]) == {"retrieval_tr@1", "retrieval_ir@1"}


@pytest.mark.parametrize("workload", ["train_full", "dynamics_sweep", "retrieval_dense"])
def test_benchmark_pair_count_is_the_pairs_run_benchmark_scores(workload):
    # the score audit checks each checkpoint's pair count against `manifest_pairs`,
    # which re-derives each subtask's cells per item from its protocol group rather
    # than reading `evalharness.SUBTASKS`; a recording scorer counts what is scored,
    # on the benchmark's own manifests: two default-shaped ones and a dense table
    bench = load_bench()
    spec = bench.make_spec(workload, seed=1, seconds=15)
    manifest = spec.manifest()
    scored = []

    def recorded(scene, text):
        scored.append((scene, text))
        return 0.5

    evalharness.run_benchmark(recorded, manifest)
    assert bench.manifest_pairs(manifest) == spec.pairs_per_checkpoint() == len(scored)
    assert bool(manifest["subtasks"]) == (workload != "retrieval_dense")


# at grid 2, eval seed 902's four retrieval captions hold "a blue square"
# twice, so row 3's match ties exactly with column 2 and R@1's tie rule
# decides that row
@pytest.mark.parametrize("eval_seed", [900, 902])
def test_audit_scores_pair_by_pair_what_run_eval_scores_in_batches(tmp_path, eval_seed):
    # run_eval's scorer has the manifest and fuses its pairs in batches; the
    # score audit re-scores each pair alone, through a recording wrapper around
    # model_scorer(model).  Its digests stand for run_eval's scores only while
    # the two agree, to the last two bits of a score in [0.5, 1)
    config = tiny_config(steps=3, eval_per_subtask=3, retrieval_count=4, eval_seed=eval_seed)
    runner.run_training(config, tmp_path)
    ckpt = runner.checkpoint_path(tmp_path, 3)
    report = runner.run_eval(config, ckpt, tmp_path)
    dumped = [float(line.split("\t")[3]) for line in
              (tmp_path / "reports" / "scores_step_000003.tsv").read_text().splitlines()]

    scored_model = model.VLModel(config.model_config(), seed=config.seed)
    model.load_checkpoint(scored_model, ckpt, expect_hash=config.config_hash())
    scorer = evalharness.model_scorer(scored_model)
    audited = []

    def recorded(scene, text):
        audited.append(scorer(scene, text))
        return audited[-1]

    manifest = evalharness.default_manifest(config.eval_seed, config.eval_per_subtask,
                                            config.patch_grid, config.retrieval_count)
    audit = evalharness.run_benchmark(recorded, manifest, checkpoint_step=3)
    assert len(audited) == len(dumped) + config.retrieval_count ** 2
    batched = dumped + report.retrieval.reshape(-1).tolist()
    assert max(abs(a - b) for a, b in zip(audited, batched)) <= 2.3e-16
    assert audit.metrics == report.metrics


def test_eval_loads_each_checkpoint_through_the_runner_binding(tmp_path, monkeypatch):
    # the tracer times checkpoint reads by wrapping `runner.load_checkpoint`
    config = tiny_config(steps=6, cadence=2, eval_per_subtask=1, retrieval_count=2)
    runner.run_training(config, tmp_path)
    loaded = []
    load = runner.load_checkpoint

    def spied(scored, path, expect_hash):
        loaded.append(Path(path).name)
        return load(scored, path, expect_hash)

    monkeypatch.setattr(runner, "load_checkpoint", spied)
    runner.run_eval(config, runner.checkpoint_path(tmp_path, 4), tmp_path)
    assert loaded == ["step_000004.ckpt"]
    loaded.clear()
    runner.run_dynamics(config, tmp_path)
    assert loaded == ["step_000002.ckpt", "step_000004.ckpt", "step_000006.ckpt"]


def test_checkpoint_layout_read_by_the_benchmark(tmp_path):
    config = micro_config(seed=4)
    cfg = config.model_config()
    path = tmp_path / "step.ckpt"
    model.save_checkpoint(model.VLModel(cfg, seed=1), path, config.config_hash())
    lines = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    header = f"{model.CHECKPOINT_MAGIC} {model.CHECKPOINT_VERSION} {config.config_hash()}\n"
    assert lines[0] == header
    assert len(lines) == 1 + len(model.param_shapes(cfg))
    # base64 of float64 bytes, not per-float text: the size the benchmark's ckpt_bytes reports
    size = len(header) + sum(
        len(name) + len(",".join(map(str, shape))) + 4 * -(-8 * math.prod(shape) // 3) + 3
        for name, shape, _ in model.param_shapes(cfg))
    assert path.stat().st_size == size


def load_ab_pairs():
    """tests/ab_pairs.py, which puts perfbench/ on sys.path to import `spread`."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("ab_pairs", Path(__file__).with_name(
        "ab_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # quartiles 10.175, 10.725


@pytest.mark.parametrize("change, better, bound, expected", [
    # 10/10 and 9/10 wins with a median gap past the quartile distance of 0.55
    ([p - 1.0 for p in PARENT], "lower", 0.24, "gain"),
    ([p - 1.0 for p in PARENT[:9]] + [11.0], "lower", 0.24, "gain"),
    ([p + 1.0 for p in PARENT], "higher", 0.24, "gain"),
    # 8/10 wins is not enough, however far the medians are
    ([p - 1.0 for p in PARENT[:8]] + [11.0, 11.0], "lower", 0.24, "within bound"),
    # 10/10 wins, but a median gap inside the quartile distance
    ([p - 0.5 for p in PARENT], "lower", 0.24, "within bound"),
    # the median is 10% worse: past a 5% bound, inside a 24% one
    ([p * 1.1 for p in PARENT], "lower", 0.05, "worse"),
    ([p * 1.1 for p in PARENT], "lower", 0.24, "within bound"),
    ([p * 0.9 for p in PARENT], "higher", 0.05, "worse"),
    # the parent's quartile distance (5.4% of its median) is wider than a 2% bound
    ([p + 0.01 for p in PARENT], "lower", 0.02, "unresolved"),
    ([p - 0.01 for p in PARENT], "lower", 0.02, "unresolved"),
    # unless every change run beats every parent run
    ([9.8] * 10, "lower", 0.02, "gain"),
    ([9.99] * 5 + [9.95] * 5, "lower", 0.02, "within bound"),
    # 2 of 2 wins by 10% are no claim: a gain needs 10 pairs
    ([9.0, 9.1], "lower", 0.24, "within bound"),
])
def test_ab_pairs_verdict(change, better, bound, expected):
    # the parent's runs are PARENT's first len(change)
    parent = PARENT[:len(change)]
    assert load_ab_pairs().verdict(parent, change, better, bound) == expected


def test_ab_pairs_report_keeps_each_runs_value():
    runs = [{"correct": True, "failed": 0, "metrics": {"b": {"value": 2.0 * v}, "a": {"value": v}}}
            for v in PARENT[::-1]]
    runs[3].update(correct=False, failed=2)
    report = load_ab_pairs().report(runs)
    assert report["correct"] is False and report["failed"] == 2
    assert list(report["metrics"]) == ["a", "b"]
    a, b = report["metrics"]["a"], report["metrics"]["b"]
    assert a["values"] == PARENT[::-1]
    assert b["values"] == [2.0 * v for v in PARENT[::-1]]
    assert a["n"] == 10 and a["median"] == pytest.approx(10.45)
    assert (a["q1"], a["q3"]) == pytest.approx((10.175, 10.725))
    assert a["spread"] == pytest.approx(0.55 / 10.45)
    assert b["median"] == pytest.approx(20.9) and b["spread"] == pytest.approx(a["spread"])


STUDY_METRICS = ["eval_pairs_per_s", "peak_rss_mb"]


@pytest.mark.parametrize("workload, fault, named", [
    ("train_full", None, None),
    ("train_full", "worse", "FAIL train_full setup_s: worse"),
    ("train_full", "incorrect",
     "FAIL train_full seed 3: the change's run reads correct=False, failed 0"),
    ("train_full", "failed",
     "FAIL train_full seed 3: the change's run reads correct=True, failed 2"),
    ("study_eval", None, None),
    ("study_eval", "digest", "FAIL study_eval seed 3: the two runs' report digests differ"),
], ids=["clean", "worse", "incorrect", "failed", "study_clean", "study_digest"])
def test_ab_pairs_main_exits_1_on_a_fault(workload, fault, named, tmp_path, monkeypatch,
                                          capsys):
    ab_pairs = load_ab_pairs()
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    def one_run(checkout, workload, seed, seconds):  # stands in for a benchmark run
        change = checkout.name == "change"
        hit = change and seed == 3
        if workload == "study_eval":  # two metrics, and a digest of the run's reports
            return {"correct": True, "failed": 0, "attempted": 8096,
                    "digest": "b" if hit and fault == "digest" else "a",
                    "metrics": {name: {"value": 10.0 + 0.1 * seed} for name in STUDY_METRICS}}
        metrics = {m["name"]: {"value": 10.0 + 0.1 * seed} for m in spec["end_to_end"]}
        if change and fault == "worse":
            metrics["setup_s"]["value"] *= 2  # lower is better
        return {"correct": not (hit and fault == "incorrect"),
                "failed": 2 if hit and fault == "failed" else 0, "attempted": 5,
                "metrics": metrics}

    monkeypatch.setattr(ab_pairs, "one_run", one_run)
    monkeypatch.chdir(tmp_path)
    code = ab_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--label", "t", "--seeds", "1-4",
                          "--workloads", workload])
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert (code, fails) == ((0, []) if named is None else (1, [named]))
    judged = [line.split()[0] for line in lines if line.startswith("  ")]
    assert judged == (STUDY_METRICS if workload == "study_eval" else
                      [m["name"] for m in spec["end_to_end"]])
    assert all((tmp_path / f"BENCH_t_{side}.json").exists() for side in ("parent", "change"))


@pytest.mark.parametrize("seeds", ["3", "5-4"])
def test_ab_pairs_rejects_fewer_than_two_seeds_before_any_run(seeds, tmp_path, monkeypatch,
                                                              capsys):
    # one seed has no quartile distance to judge by, and no seed has no median
    ab_pairs = load_ab_pairs()
    runs = []
    monkeypatch.setattr(ab_pairs, "one_run", lambda *args: runs.append(args))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        ab_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--label", "t", "--seeds", seeds])
    assert exited.value.code == 2 and runs == [] and not list(tmp_path.iterdir())
    assert "needs at least two" in capsys.readouterr().err


def test_ab_pairs_study_run_on_this_checkout():
    # the one real study run in tier-1: a 12-step training, then a study-size eval
    ab_pairs = load_ab_pairs()
    try:
        result = ab_pairs.one_run(PERFBENCH.parent, "study_eval", 1, 15)
    finally:
        ab_pairs.scratch().cleanup()
    assert sorted(result) == ["attempted", "correct", "digest", "failed", "metrics"]
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 8096)
    assert sorted(result["metrics"]) == STUDY_METRICS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(bytes.fromhex(result["digest"])) == 32  # a sha256
