"""Config round-trip, run directory discipline, CLI commands, determinism."""

import builtins
import errno
import filecmp
import json
import math
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finegrain import dynamics as dyn
from finegrain import evalharness as ev
from finegrain import fileio, runner
from finegrain.cli import EXIT_DEPENDENCY, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from finegrain.config import (LOSS_ARMS, LOWEST_VALUES, RunConfig, load_config, parse_config_text,
                              save_config)
from finegrain.errors import DependencyError, ValidationError
from finegrain.model import VLModel, save_checkpoint
from finegrain.synthdata import DATA_SOURCES

from support import tiny_config


class TestConfig:
    def test_round_trip_lossless(self):
        config = tiny_config()
        parsed = parse_config_text(config.render())
        assert parsed == config
        assert parsed.config_hash() == config.config_hash()

    def test_missing_option_named(self):
        text = tiny_config().render().replace("cadence = 3\n", "")
        with pytest.raises(ValidationError, match="run.cadence"):
            parse_config_text(text, origin="test.ini")

    def test_bad_value_named(self):
        text = tiny_config().render().replace("seed = 4", "seed = banana")
        with pytest.raises(ValidationError, match="run.seed"):
            parse_config_text(text)

    def test_unknown_option_rejected(self):
        text = tiny_config().render().replace("[run]", "[run]\nwhat = 1")
        with pytest.raises(ValidationError, match="what"):
            parse_config_text(text)

    def test_cadence_must_divide_steps(self):
        with pytest.raises(ValidationError):
            tiny_config(steps=7, cadence=3)

    def test_invalid_sources_rejected(self):
        with pytest.raises(ValidationError):
            tiny_config(sources="captions,nonsense")

    def test_no_sources_rejected(self):
        for sources in ("", " , "):
            with pytest.raises(ValidationError, match="at least one data source"):
                tiny_config(sources=sources)

    def test_every_numeric_setting_has_a_lowest_value(self):
        # a numeric setting added without a bound would accept any value;
        # learning_rate has its own rule
        numeric = {key for key, kind in get_type_hints(RunConfig).items() if kind in (int, float)}
        assert set(LOWEST_VALUES) == numeric - {"learning_rate"}

    @pytest.mark.parametrize("key,value", [
        ("patch_grid", 0), ("hidden_dim", 0), ("heads", 0), ("heads", -4), ("proj_dim", 0),
        ("mlp_dim", 0), ("max_len", 0), ("vision_layers", -1), ("text_layers", 0),
        ("cross_layers", 0), ("caption_batch", 1), ("detection_batch", 1),
        ("eval_per_subtask", 0), ("clip_norm", -1), ("clip_norm", "nan"),
        ("clip_norm", "inf"), ("learning_rate", 0), ("learning_rate", -0.01),
        ("learning_rate", "nan"), ("retrieval_count", -1), ("caption_count", -1),
        ("detection_scene_count", -1), ("seed", -1), ("data_seed", -1), ("eval_seed", -1),
    ])
    def test_out_of_range_size_rejected(self, key, value):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", tiny_config().render(), flags=re.M)
        with pytest.raises(ValidationError, match=key):
            parse_config_text(text)

    def test_zero_retrieval_count_means_no_table(self):
        config = tiny_config(retrieval_count=0)
        manifest = ev.default_manifest(config.eval_seed, config.eval_per_subtask,
                                       config.patch_grid, config.retrieval_count)
        assert "retrieval" not in manifest

    # a second valid value of each setting, for tiny_config
    OTHER_VALUES = {
        "seed": 5, "steps": 9, "cadence": 2, "patch_grid": 3, "hidden_dim": 12,
        "vision_layers": 2, "text_layers": 2, "cross_layers": 2, "heads": 4, "proj_dim": 6,
        "mlp_dim": 8, "max_len": 32, "losses": "A",
        "sources": "captions,object_labels", "data_seed": 2, "caption_count": 7,
        "detection_scene_count": 7, "caption_batch": 3, "detection_batch": 3,
        "eval_seed": 901, "eval_per_subtask": 3, "retrieval_count": 0,
        "learning_rate": 0.02, "clip_norm": 0.5,
    }

    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
    def test_every_setting_moves_the_hash(self, key):
        # a setting missing from the rendering would let two configs share a
        # run directory and its checkpoints
        config = tiny_config()
        other = replace(config, **{key: self.OTHER_VALUES[key]})
        assert getattr(other, key) != getattr(config, key)
        assert other.config_hash() != config.config_hash()

    def test_default_config_hash_pinned(self):
        # every run artifact embeds this hash; a change to the defaults or to
        # the rendering orphans all existing run directories and checkpoints
        assert RunConfig(seed=7).config_hash() == "cf41e5a444e7"

    @pytest.mark.parametrize("arm", list(LOSS_ARMS))
    def test_each_loss_arm_round_trips(self, arm):
        config = tiny_config(losses=arm)
        text = config.render()
        assert f"[ablation]\nlosses = {arm}\nsources = " in text
        parsed = parse_config_text(text)
        assert parsed == config and parsed.arm == LOSS_ARMS[arm]
        assert parsed.config_hash() == config.config_hash()

    FIVE_ARMS = "expected one of A, A+VMA, A+bbox, full, pevl"

    def test_unknown_loss_arm_rejected(self):
        with pytest.raises(ValidationError, match=re.escape(self.FIVE_ARMS)):
            tiny_config(losses="B")
        text = tiny_config().render().replace("losses = full\n", "losses = B\n")
        with pytest.raises(ValidationError, match=re.escape(self.FIVE_ARMS)):
            parse_config_text(text)

    SPACES = st.sampled_from(["", " ", "  "])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(DATA_SOURCES)), SPACES, SPACES),
                    min_size=1, max_size=8))
    def test_equal_source_sets_render_and_hash_alike(self, spelled):
        # order, repeats and spacing do not change which sources train, so they
        # must not change the config's text or hash either
        text = ",".join(f"{before}{name}{after}" for name, before, after in spelled)
        names = {name for name, _, _ in spelled}
        canonical = tiny_config(losses="A", sources=",".join(s for s in DATA_SOURCES if s in names))
        config = replace(canonical, sources=text)
        assert config.sources == canonical.sources
        assert config.render() == canonical.render()
        assert config.config_hash() == canonical.config_hash()
        rendered = canonical.render().replace(f"sources = {canonical.sources}\n",
                                              f"sources = {text}\n")
        assert parse_config_text(rendered).config_hash() == canonical.config_hash()

    def test_reordered_default_sources_and_full_all_arm_keep_the_default_hash(self):
        default = RunConfig(seed=7)
        reordered = RunConfig(seed=7, sources=" , ".join(reversed(list(DATA_SOURCES))))
        [full] = runner.parse_grid_spec(default, "full:all").values()
        assert reordered.config_hash() == full.config_hash() == "cf41e5a444e7"


class TestRunner:
    def test_training_writes_log_and_checkpoints(self, tmp_path):
        config = tiny_config()
        result = runner.run_training(config, tmp_path / "run")
        assert result.checkpoint_steps == [3, 6]
        lines = result.loss_log.read_text().splitlines()
        assert lines[0] == f"# config_hash={config.config_hash()}"
        assert len(lines) == 2 + config.steps  # hash + header + one row per step
        kinds = [ln.split("\t")[1] for ln in lines[2:]]
        assert kinds == ["caption", "caption", "detection"] * 2

    def test_wrong_config_for_run_dir_is_hard_error(self, tmp_path):
        run_dir = tmp_path / "run"
        runner.run_training(tiny_config(), run_dir)
        with pytest.raises(DependencyError):
            runner.prepare_run_dir(tiny_config(seed=99), run_dir)

    def test_training_byte_identical_across_reruns(self, tmp_path):
        config = tiny_config()
        runner.run_training(config, tmp_path / "a")
        runner.run_training(config, tmp_path / "b")
        compare = filecmp.dircmp(tmp_path / "a", tmp_path / "b")

        def assert_equal_tree(cmp):
            assert not cmp.diff_files, cmp.diff_files
            assert not cmp.left_only and not cmp.right_only
            for sub in cmp.subdirs.values():
                assert_equal_tree(sub)

        assert_equal_tree(compare)

    def test_eval_checkpoint_of_other_config_rejected(self, tmp_path):
        config = tiny_config()
        result = runner.run_training(config, tmp_path / "run")
        other = tiny_config(seed=99)
        with pytest.raises(DependencyError):
            runner.run_eval(other, runner.checkpoint_path(tmp_path / "run", 6),
                            tmp_path / "other")

    def test_dynamics_reproduces_bit_identically(self, tmp_path):
        config = tiny_config(steps=6, cadence=2)  # 3 checkpoints: correlations computable
        run_dir = tmp_path / "run"
        runner.run_training(config, run_dir)
        t1, c1 = runner.run_dynamics(config, run_dir)
        first_t, first_c = t1.read_bytes(), c1.read_bytes()
        t2, c2 = runner.run_dynamics(config, run_dir)
        assert t2.read_bytes() == first_t
        assert c2.read_bytes() == first_c

    def test_eval_and_dynamics_draw_no_init(self, tmp_path, monkeypatch):
        # the scored model is built from its checkpoint alone; the outputs are
        # byte-identical to a run's whose model class may draw an init
        config = tiny_config(steps=6, cadence=2)  # 3 checkpoints: correlations computable
        drawn, built = tmp_path / "drawn", tmp_path / "built"
        runner.run_training(config, drawn)
        shutil.copytree(drawn, built)

        def refused(*args, **kwargs):
            raise AssertionError("VLModel.__init__ drew an init")

        for run_dir in (drawn, built):
            if run_dir == built:
                monkeypatch.setattr(VLModel, "__init__", refused)
            for step in (2, 4, 6):
                runner.run_eval(config, runner.checkpoint_path(run_dir, step), run_dir)
            runner.run_dynamics(config, run_dir)
        names = sorted(p.name for p in (drawn / "reports").iterdir())
        assert names == sorted([*(f"{kind}_step_{step:06d}.{ext}" for step in (2, 4, 6)
                                  for kind, ext in (("eval", "tsv"), ("eval", "json"),
                                                    ("scores", "tsv"))),
                                "trajectory.tsv", "correlations.tsv"])
        for name in names:
            assert ((built / "reports" / name).read_bytes()
                    == (drawn / "reports" / name).read_bytes()), name

    def test_checkpoint_step_from_name(self):
        assert runner.checkpoint_step(Path("run/checkpoints/step_000300.ckpt")) == 300
        assert runner.checkpoint_step(Path("my_model.ckpt")) == 0
        assert runner.checkpoint_step(Path("model.ckpt")) == 0
        for bad in ("step_final.ckpt", "step_12_b.ckpt", "step_.ckpt"):
            with pytest.raises(DependencyError):
                runner.checkpoint_step(Path(bad))

    def test_eval_of_checkpoint_without_step_name_is_step_zero(self, tmp_path):
        config = tiny_config()
        runner.run_training(config, tmp_path / "run")
        renamed = tmp_path / "my_model.ckpt"
        renamed.write_bytes(runner.checkpoint_path(tmp_path / "run", 6).read_bytes())
        report = runner.run_eval(config, renamed, tmp_path / "eval")
        assert report.checkpoint_step == 0
        assert (tmp_path / "eval" / "reports" / "eval_step_000000.tsv").exists()

    def test_grid_spec_parsing(self):
        arms = runner.parse_grid_spec(tiny_config(), "full:all; A:captions")
        assert list(arms) == ["full__attr-cap-obj-region", "a__cap"]
        full, a = arms.values()
        assert full.losses == "full" and len(full.source_set()) == 4
        assert a == replace(tiny_config(), sources="captions", losses="A")
        with pytest.raises(ValidationError):
            runner.parse_grid_spec(tiny_config(), "bogus:all")
        with pytest.raises(ValidationError):
            runner.parse_grid_spec(tiny_config(), "")

    def test_grid_spec_strips_and_merges_sources(self):
        arms = runner.parse_grid_spec(tiny_config(), " pevl : captions + object_labels+captions ;")
        assert list(arms) == ["pevl__cap-obj"]
        assert arms["pevl__cap-obj"].sources == "captions,object_labels"

    def test_calibration_grid_arms(self):
        arms = runner.parse_grid_spec(tiny_config(), runner.CALIBRATION_GRID)
        assert list(arms) == ["a__cap", "full__attr-cap-obj-region", "full__cap-obj",
                              "full__cap-region"]

    def test_dynamics_needs_every_cadence_checkpoint(self, tmp_path):
        config = tiny_config(cadence=2)
        runner.run_training(config, tmp_path)
        runner.checkpoint_path(tmp_path, 4).unlink()
        with pytest.raises(DependencyError, match=r"checkpoints at steps \[2, 6\]"):
            runner.run_dynamics(config, tmp_path)

    def test_dynamics_orders_checkpoints_by_step(self, tmp_path):
        # names pad steps to 6 digits, so step_1000000 sorts before step_200000 by name
        config = tiny_config(steps=1_200_000, cadence=200_000)
        model = VLModel(config, seed=config.seed)
        runner.prepare_run_dir(config, tmp_path)
        steps = list(range(200_000, 1_200_001, 200_000))
        for step in steps:
            save_checkpoint(model, runner.checkpoint_path(tmp_path, step), config.config_hash())
        trajectory, _ = runner.run_dynamics(config, tmp_path)
        rows = trajectory.read_text().splitlines()[2:]
        assert [int(row.split("\t")[0]) for row in rows] == steps

    def test_dynamics_of_run_dir_of_other_config_rejected(self, tmp_path, monkeypatch):
        config = tiny_config()
        runner.run_training(config, tmp_path / "run")
        save_config(tiny_config(seed=99), tmp_path / "run" / "config.ini")
        scored = []
        run_benchmark = ev.run_benchmark

        def counted(*args, **kwargs):
            scored.append(args)
            return run_benchmark(*args, **kwargs)

        monkeypatch.setattr(ev, "run_benchmark", counted)
        with pytest.raises(DependencyError, match="belongs to config"):
            runner.run_dynamics(config, tmp_path / "run")
        assert not list((tmp_path / "run" / "reports").iterdir())
        assert not scored  # rejected before any checkpoint is scored

    def test_ablation_writes_one_dir_per_arm_and_summary(self, tmp_path):
        config = tiny_config()
        summary = runner.run_ablation(config, "A:captions; full:all", tmp_path / "grid")
        lines = summary.read_text().splitlines()
        assert len(lines) == 4  # hash comment + header + 2 arms
        header = lines[1].split("\t")
        a_row = dict(zip(header, lines[2].split("\t")))
        full_row = dict(zip(header, lines[3].split("\t")))
        assert a_row["loss_VMA"] == "-" and a_row["loss_bbox"] == "-"
        assert full_row["loss_VMA"] == "x" and full_row["loss_bbox"] == "x"
        assert (tmp_path / "grid" / "a__cap").is_dir()
        assert (tmp_path / "grid" / "full__attr-cap-obj-region").is_dir()

    def test_score_dump_agrees_with_metrics(self, tmp_path):
        config = tiny_config()
        runner.run_training(config, tmp_path)
        runner.run_eval(config, runner.checkpoint_path(tmp_path, 6), tmp_path)
        rows: dict[str, dict[int, list[float]]] = {}
        for line in (tmp_path / "reports" / "scores_step_000006.tsv").read_text().splitlines():
            item, tag, _, score, _ = line.split("\t")
            rows.setdefault(tag, {}).setdefault(int(item), []).append(float(score))
        assert set(rows) == set(ev.SUBTASKS)
        expected = {}
        for tag, items in rows.items():
            assert sorted(items) == list(range(config.eval_per_subtask))
            expected.update(ev.subtask_metrics(tag, np.array(list(items.values()))))
        report = json.loads((tmp_path / "reports" / "eval_step_000006.json").read_text())
        assert {name: report["metrics"][name] for name in expected} == expected
        assert set(report["metrics"]) - set(expected) == {
            "foil_avg", "retrieval_tr@1", "retrieval_ir@1"}

    @pytest.mark.parametrize("writer", [
        "config", "report", "report_json", "scores", "trajectory", "correlations", "summary"])
    def test_report_write_failing_midway_keeps_previous_file(self, writer, tmp_path,
                                                             monkeypatch):
        eval_report = ev.EvalReport(checkpoint_step=3,
                                    cells={"existence": np.array([[0.75, 0.25], [0.25, 0.75]])})
        trajectory = {3: {"foil_avg": 0.5}}
        write = {
            "config": lambda p: save_config(tiny_config(), p),
            "report": lambda p: ev.write_report(p, eval_report, "cafe01"),
            "report_json": lambda p: ev.write_report_json(p, eval_report, "cafe01"),
            "scores": lambda p: ev.write_scores(p, eval_report),
            "trajectory": lambda p: dyn.write_trajectory(p, trajectory, "cafe01"),
            "correlations": lambda p: dyn.write_correlations(p, [], "cafe01"),
            "summary": lambda p: fileio.write_table(p, "cafe01", ["arm"], []),
        }[writer]
        path = tmp_path / "eval_step_000003.tsv"
        path.write_text("previous\n", encoding="utf-8")

        class DiskFull:
            def __init__(self, *args, **kwargs):
                self.fh = builtins.open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(fileio, "open", DiskFull, raising=False)
        with pytest.raises(OSError):
            write(path)
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_arm_name_of_full_all_pinned(self):
        assert list(runner.parse_grid_spec(tiny_config(), "full:all")) == [
            "full__attr-cap-obj-region"]


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "config.ini"
        save_config(tiny_config(), path)
        return path

    def test_unknown_section_is_a_validation_error(self, tmp_path, capsys):
        # a misspelt section would otherwise be ignored, and the run trained at defaults
        path = self.write_config(tmp_path)
        path.write_text(path.read_text() + "[trian]\nlearning_rate = 0.5\n")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert "unknown section(s) ['trian']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_init_config_round_trips(self, capsys):
        assert main(["init-config", "--seed", "3"]) == EXIT_OK
        text = capsys.readouterr().out
        assert parse_config_text(text).seed == 3

    def test_full_pipeline_exit_codes(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        ckpt = run_dir / "checkpoints" / "step_000006.ckpt"
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out", str(run_dir)]) == EXIT_OK
        assert main(["dynamics", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        assert main(["report", "--out", str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eval_step_000006" in out

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(save_or_text := tiny_config().render().replace("seed = 4", "seed = x"))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == EXIT_VALIDATION

    def test_zero_heads_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(tiny_config().render().replace("heads = 2", "heads = 0"))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("settings", [
        {"retrieval_count": -2},
        # a 1x1 grid holds one object: no scene supports the two-object subtasks
        {"patch_grid": 1},
        # the first caption is 11 tokens long
        {"max_len": 8},
    ], ids=["retrieval_count", "patch_grid", "max_len"])
    def test_out_of_range_setting_exit_code(self, tmp_path, settings):
        text = tiny_config().render()
        for key, value in settings.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert not (tmp_path / "r").exists()

    def test_eval_text_beyond_max_len_creates_nothing(self, tmp_path):
        # object labels fit in 6 tokens, so training passes; the eval captions do not
        config_path = tmp_path / "config.ini"
        save_config(tiny_config(sources="object_labels", losses="A", max_len=6), config_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        ckpt = run_dir / "checkpoints" / "step_000006.ckpt"
        code = main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("count", ["caption_count", "detection_scene_count"])
    def test_one_image_stream_exit_code(self, tmp_path, capsys, count):
        # every batch of a one-image stream shows one image: no matching negative
        config_path = tmp_path / "config.ini"
        save_config(tiny_config(**{count: 1}), config_path)
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
        assert "no matching negative" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    # the diverging update overflows on purpose; the "error" filter would raise instead
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverged_run_names_its_step(self, tmp_path, capsys):
        # no clipping and a huge step: an update overflows, and a later gradient norm is nan
        config_path = tmp_path / "config.ini"
        save_config(tiny_config(learning_rate=1e3, clip_norm=0), config_path)
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(run_dir)])
        assert code == EXIT_NUMERIC
        logged = (run_dir / "logs" / "losses.tsv").read_text(encoding="utf-8").splitlines()[2:]
        assert f"numeric error: step {len(logged) + 1}: " in capsys.readouterr().err

    def test_dependency_exit_code(self, tmp_path):
        config_path = self.write_config(tmp_path)
        missing = tmp_path / "nope.ckpt"
        code = main(["eval", "--config", str(config_path), "--checkpoint", str(missing),
                     "--out", str(tmp_path / "run2")])
        assert code == EXIT_DEPENDENCY
        assert not (tmp_path / "run2").exists()

    def test_truncated_checkpoint_exit_code(self, tmp_path):
        config_path = self.write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        ckpt = run_dir / "checkpoints" / "step_000006.ckpt"
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(ckpt.read_bytes()[:-5])
        code = main(["eval", "--config", str(config_path), "--checkpoint", str(cut),
                     "--out", str(run_dir)])
        assert code == EXIT_DEPENDENCY

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "config.ini"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff" + tiny_config().render().encode("utf-8"))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
        assert "cannot read config file" in capsys.readouterr().err

    def test_checkpoint_directory_exit_code(self, tmp_path):
        config_path = self.write_config(tmp_path)
        code = main(["eval", "--config", str(config_path), "--checkpoint", str(tmp_path),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_DEPENDENCY

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_out_naming_a_file_exit_code(self, tmp_path, capsys, command):
        config_path = self.write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = [command, "--config", str(config_path), "--out", str(taken)]
        code = main(argv + (["--grid", "A:captions"] if command == "ablate" else []))
        assert code == EXIT_VALIDATION
        assert "as a run directory" in capsys.readouterr().err

    def test_eval_into_a_file_scores_nothing(self, tmp_path, capsys, monkeypatch):
        config_path = self.write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        taken = tmp_path / "taken"
        taken.write_text("")

        def scored(*args, **kwargs):
            raise AssertionError("eval scored before it checked --out")

        monkeypatch.setattr(ev, "run_benchmark", scored)
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(run_dir / "checkpoints" / "step_000006.ckpt"), "--out", str(taken)])
        assert code == EXIT_VALIDATION
        assert "as a run directory" in capsys.readouterr().err

    def test_eval_into_run_dir_of_other_config_reads_no_checkpoint(self, tmp_path, capsys,
                                                                   monkeypatch):
        config_path = self.write_config(tmp_path)
        run_dir, other = tmp_path / "run", tmp_path / "other"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        runner.prepare_run_dir(tiny_config(seed=99), other)
        loaded = []
        load = runner.load_checkpoint

        def spied(model, path, **kwargs):
            loaded.append(path)
            return load(model, path, **kwargs)

        monkeypatch.setattr(runner, "load_checkpoint", spied)
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(run_dir / "checkpoints" / "step_000006.ckpt"), "--out", str(other)])
        assert code == EXIT_DEPENDENCY
        assert "belongs to config" in capsys.readouterr().err
        assert not loaded

    @pytest.mark.parametrize("name,content,code,printed", [
        ("logs/losses.tsv", b"", EXIT_OK, "loss log: 0 steps\n"),
        ("logs/losses.tsv",
         b"# config_hash=cafe01\nstep\tbatch_kind\n1\tcaption\n2\tdetection\n3\tcapt",
         EXIT_OK, "loss log: 2 steps\nlast step: 2\tdetection\n"),
        ("logs/losses.tsv", b"# config_hash=cafe01\nstep\t\xff\n", EXIT_DEPENDENCY, ""),
        ("logs/losses.tsv", None, EXIT_DEPENDENCY, ""),
        ("reports/eval_step_000006.tsv", b"subtask\t\xff\n", EXIT_DEPENDENCY, ""),
        ("reports/eval_step_000006.tsv", None, EXIT_DEPENDENCY, ""),
        ("summary.tsv", b"arm\t\xff\n", EXIT_DEPENDENCY, ""),
        ("summary.tsv", None, EXIT_DEPENDENCY, ""),
    ], ids=["empty", "cut_off_last_line", "log_not_utf8", "log_directory", "report_not_utf8",
            "report_directory", "summary_not_utf8", "summary_directory"])
    def test_report_of_a_killed_run_counts_complete_steps(self, tmp_path, capsys, name, content,
                                                          code, printed):
        # the loss log is written through a buffer: a run killed before the first
        # flush leaves it empty, and one killed mid-write leaves a line cut off;
        # a run file (content None: a directory in its place) that cannot be read
        # as UTF-8 text is a dependency error naming it
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert out == printed
        assert (f"dependency error: cannot read run file {path}:" in err) == (code != EXIT_OK)

    def test_ablate_checks_every_arm_before_training(self, tmp_path, capsys):
        for case, settings, arms, message in [
            ("config", {}, "A:captions; full:captions", "detection data source"),
            # the second arm's one detection scene shows one image in every detection batch
            ("schedule", {"detection_scene_count": 1}, "A:captions; full:all",
             "no matching negative"),
        ]:
            config_path = tmp_path / f"{case}.ini"
            save_config(tiny_config(**settings), config_path)
            grid = tmp_path / case
            code = main(["ablate", "--config", str(config_path), "--grid", arms,
                         "--out", str(grid)])
            assert code == EXIT_VALIDATION, case
            assert message in capsys.readouterr().err, case
            assert not list(grid.glob("*")), case

    def test_ablate_unknown_loss_arm_exit_code(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        grid = tmp_path / "grid"
        code = main(["ablate", "--config", str(config_path), "--grid", "B:captions",
                     "--out", str(grid)])
        assert code == EXIT_VALIDATION
        assert TestConfig.FIVE_ARMS in capsys.readouterr().err
        assert not grid.exists()

    def test_train_into_run_dir_of_flag_config_exit_code(self, tmp_path, capsys):
        # a run directory written when the loss arm was three flags no longer parses
        config_path = self.write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        flags = "use_vma = true\nuse_bbox = true\nuse_pevl_tokens = false\n"
        copy = run_dir / "config.ini"
        copy.write_text(copy.read_text().replace("losses = full\n", flags))
        before = {p: p.read_bytes() if p.is_file() else None for p in run_dir.rglob("*")}
        code = main(["train", "--config", str(config_path), "--out", str(run_dir)])
        assert code == EXIT_VALIDATION
        assert "unknown option(s)" in capsys.readouterr().err
        assert {p: p.read_bytes() if p.is_file() else None for p in run_dir.rglob("*")} == before

    @pytest.mark.parametrize("key,value,message", [
        ("sources", "captions%x", "unknown data sources ['captions%x']"),
        ("steps", "%(seed)s", "option run.steps='%(seed)s' is not a valid int"),
    ], ids=["sources", "steps"])
    def test_percent_in_config_is_literal(self, tmp_path, capsys, key, value, message):
        # a `%` is neither interpolation syntax nor a reference to another key
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", tiny_config().render(), flags=re.M)
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_ablate_arm_named_twice_exit_code(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        grid = tmp_path / "grid"
        code = main(["ablate", "--config", str(config_path), "--grid", "A:captions; A:captions",
                     "--out", str(grid)])
        assert code == EXIT_VALIDATION
        assert "grid names arm a__cap twice" in capsys.readouterr().err
        assert not grid.exists()

    def test_ablate_checks_every_arm_dir_before_training(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        grid = tmp_path / "grid"
        runner.prepare_run_dir(tiny_config(seed=99), grid / "a__cap")
        code = main(["ablate", "--config", str(config_path), "--grid", "full:all; A:captions",
                     "--out", str(grid)])
        assert code == EXIT_DEPENDENCY
        assert "a__cap belongs to config" in capsys.readouterr().err
        assert not (grid / "full__attr-cap-obj-region" / "logs" / "losses.tsv").exists()

    def test_ablate_without_retrieval_table_exit_code(self, tmp_path):
        # retrieval_count = 0 means no retrieval table, so both retrieval columns read nan
        config_path = tmp_path / "config.ini"
        save_config(tiny_config(steps=3, retrieval_count=0), config_path)
        grid = tmp_path / "grid"
        code = main(["ablate", "--config", str(config_path), "--grid", "A:captions",
                     "--out", str(grid)])
        assert code == EXIT_OK
        header, row = (line.split("\t") for line in
                       (grid / "summary.tsv").read_text().splitlines()[1:])
        values = dict(zip(header, row, strict=True))
        assert values["retrieval_tr@1"] == values["retrieval_ir@1"] == "nan"
        assert values["svo_avg"] != "nan"

    def test_dynamics_of_checkpoints_only_dir(self, tmp_path):
        config_path = self.write_config(tmp_path)
        run_dir, bare = tmp_path / "run", tmp_path / "bare"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == EXIT_OK
        shutil.copytree(run_dir / "checkpoints", bare / "checkpoints")
        for out in (run_dir, bare):
            assert main(["dynamics", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        for name in ("trajectory.tsv", "correlations.tsv"):
            assert filecmp.cmp(run_dir / "reports" / name, bare / "reports" / name, shallow=False)
        # 2 checkpoints: too few to correlate, so the table is its hash line and header
        assert (bare / "reports" / "correlations.tsv").read_bytes() == (
            f"# config_hash={tiny_config().config_hash()}\n"
            "metric_a\tmetric_b\tpearson\tspearman\tn\tstatus\n").encode()
        assert (bare / "config.ini").read_bytes() == (run_dir / "config.ini").read_bytes()

    def test_dynamics_of_missing_run_dir_creates_nothing(self, tmp_path):
        config_path = self.write_config(tmp_path)
        missing = tmp_path / "missing"
        code = main(["dynamics", "--config", str(config_path), "--out", str(missing)])
        assert code == EXIT_DEPENDENCY
        assert not missing.exists()

    def test_dynamics_of_checkpoints_of_other_config_creates_nothing(self, tmp_path, capsys):
        config = tiny_config(steps=3, cadence=3)
        runner.run_training(config, tmp_path / "a")
        copy = tmp_path / "copy"
        shutil.copytree(tmp_path / "a" / "checkpoints", copy / "checkpoints")
        wrong, right = tmp_path / "wrong.ini", tmp_path / "right.ini"
        save_config(replace(config, learning_rate=0.02), wrong)
        save_config(config, right)
        before = sorted(copy.rglob("*"))
        assert main(["dynamics", "--config", str(wrong), "--out", str(copy)]) == EXIT_DEPENDENCY
        assert "checkpoint belongs to config" in capsys.readouterr().err
        assert sorted(copy.rglob("*")) == before
        assert main(["dynamics", "--config", str(right), "--out", str(copy)]) == EXIT_OK

    def test_missing_config_file(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION


# A micro run's per-step totals and per-checkpoint score digests: a refactor of
# the model, the losses or the scorer that keeps run outputs keeps these values.
PINNED_TOTALS = (5.0125858702309145, 5.356411505985785, 12.542314147177883,
                 6.01442686865512, 5.847924186234222, 7.699481289148542)
PINNED_SCORES = {  # step: (count, fsum, fsum of squares) of scores_step_*.tsv
    2: (40, 20.168842610410024, 10.169668658952867),
    4: (40, 20.166872883595108, 10.167681845417412),
    6: (40, 20.165894738685758, 10.166696665027988),
}


def test_micro_run_outputs_pinned(tmp_path):
    config = tiny_config(cadence=2)
    result = runner.run_training(config, tmp_path)
    for step in result.checkpoint_steps:
        runner.run_eval(config, runner.checkpoint_path(tmp_path, step), tmp_path)
    runner.run_dynamics(config, tmp_path)
    rows = result.loss_log.read_text(encoding="utf-8").splitlines()[2:]
    totals = [float(row.split("\t")[-2]) for row in rows]
    assert totals == pytest.approx(PINNED_TOTALS, rel=1e-9, abs=0)
    assert result.checkpoint_steps == sorted(PINNED_SCORES)
    for step, (count, total, squares) in PINNED_SCORES.items():
        dump = tmp_path / "reports" / f"scores_step_{step:06d}.tsv"
        scores = [float(line.split("\t")[3]) for line in dump.read_text().splitlines()]
        assert len(scores) == count
        assert math.fsum(scores) == pytest.approx(total, rel=1e-9, abs=0)
        assert math.fsum(v * v for v in scores) == pytest.approx(squares, rel=1e-9, abs=0)
    assert (tmp_path / "reports" / "trajectory.tsv").exists()
