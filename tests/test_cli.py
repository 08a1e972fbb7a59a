import numpy as np
import pytest

from icuseq.cli import main
from icuseq.encoder import load_checkpoint, save_checkpoint
from icuseq.textvec import write_cache


@pytest.fixture()
def synth_args(tmp_path):
    events = str(tmp_path / "events.jsonl")
    task = str(tmp_path / "task.json")
    code = main(["synth", "--patients", "30", "--features", "8", "--rate", "0.008",
                 "--seed", "3", "--out", events, "--task-out", task])
    assert code == 0
    return events, task, tmp_path


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["definitely-not-a-command"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pretrain"])
        assert excinfo.value.code == 2
        assert "--events" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestGradcheck:
    def test_default_tiny_config(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck ok" in out
        assert "rel_err" in out

    def test_flags_accepted(self):
        assert main(["gradcheck", "--hidden", "8", "--layers", "1"]) == 0

    @pytest.mark.parametrize("d_pre", ["0", "-2"])
    def test_pre_embedding_width_below_one_is_one_error_line(self, capsys, d_pre):
        assert main(["gradcheck", "--d-pre", d_pre]) == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "d_pre" in errors[0] and "Traceback" not in err


class TestSynthIngest:
    def test_synth_then_ingest(self, synth_args, capsys):
        events, _task, _ = synth_args
        assert main(["ingest", "--events", events]) == 0
        out = capsys.readouterr().out
        assert "stays: 30" in out
        assert "feature vocabulary:" in out

    def test_synth_deterministic_files(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for path in (a, b):
            assert main(["synth", "--patients", "5", "--features", "6", "--seed", "9",
                         "--out", path]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_non_utf8_events_file_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        assert main(["ingest", "--events", str(path)]) == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "ParseError" in errors[0] and "line 1" in errors[0]
        assert "Traceback" not in err

    def test_non_finite_ratios_are_one_error_line(self, synth_args, capsys):
        events, _task, _ = synth_args
        capsys.readouterr()
        assert main(["ingest", "--events", events, "--ratios", "nan,0.5,0.5"]) == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "InvalidRatios" in errors[0]
        assert "Traceback" not in err

    def test_huge_duration_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"patient_id": "p", "stay_id": "s", "source": "a", "variable": "b", "value": 1,'
                        ' "timestamp": "2023-01-01T00:00", "duration_minutes": 1000000000000000000000000000000}\n')
        assert main(["ingest", "--events", str(path)]) == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "ParseError" in errors[0] and "line 1" in errors[0]
        assert "Traceback" not in err

    def test_missing_events_file_is_domain_error(self, capsys, tmp_path):
        code = main(["ingest", "--events", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "IoError" in capsys.readouterr().err


class TestInspectCache:
    def test_lists_entries(self, tmp_path, capsys):
        path = str(tmp_path / "cache.bin")
        write_cache(path, {"heart rate": np.ones(4, dtype=np.float32)})
        assert main(["inspect-cache", "--embed-cache", path]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "heart rate" in out

    def test_corrupt_cache_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        assert main(["inspect-cache", "--embed-cache", str(path)]) == 1
        assert "FormatError" in capsys.readouterr().err

    def test_truncated_utf8_key_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "cache.bin"
        write_cache(str(path), {"é": np.ones(4, dtype=np.float32)})
        data = path.read_bytes()
        # keep the first byte of the two-byte key and cut the file there
        path.write_bytes(data[: data.index("é".encode("utf-8")) + 1])
        assert main(["inspect-cache", "--embed-cache", str(path)]) == 1
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "FormatError" in errors[0]


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("patients=7\nfeatures=9\n")
        out_path = str(tmp_path / "c.jsonl")
        assert main(["synth", "--config", str(config), "--patients", "4",
                     "--out", out_path]) == 0
        err = capsys.readouterr().err
        assert "config synth.patients=4" in err      # flag wins
        assert "config synth.features=9" in err      # file beats default
        assert "config synth.rate=0.01" in err       # default survives

    def test_negative_unfrozen_layers_is_one_error_line(self, synth_args, capsys):
        events, task, tmp_path = synth_args
        ckpt = str(tmp_path / "pre.ckpt")
        assert main(["pretrain", "--events", events, "--out", ckpt, "--embed-dim", "8",
                     "--hidden", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "8",
                     "--max-seq-len", "16", "--epochs", "1", "--batch-size", "8"]) == 0
        config = tmp_path / "finetune.cfg"
        config.write_text("unfrozen_layers=-1\n")
        capsys.readouterr()
        code = main(["finetune", "--config", str(config), "--events", events, "--checkpoint", ckpt,
                     "--task", task, "--embed-dim", "8", "--folds", "2", "--epochs", "1"])
        assert code == 1
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "InvalidSpec" in errors[0] and "unfrozen_layers" in errors[0]

    @pytest.mark.parametrize("folds", ["0", "-1", "1"])
    def test_fold_count_below_one_is_one_error_line(self, synth_args, capsys, folds):
        events, task, tmp_path = synth_args
        ckpt = str(tmp_path / "pre.ckpt")
        assert main(["pretrain", "--events", events, "--out", ckpt, "--embed-dim", "8",
                     "--hidden", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "8",
                     "--max-seq-len", "16", "--epochs", "1", "--batch-size", "8"]) == 0
        capsys.readouterr()
        code = main(["finetune", "--events", events, "--checkpoint", ckpt, "--task", task,
                     "--embed-dim", "8", "--folds", folds, "--epochs", "1"])
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert code == 1 and len(errors) == 1 and "InvalidSpec" in errors[0] and "fold" in errors[0]
        assert "Traceback" not in err

    def test_a_bad_class_weight_is_one_error_line_naming_it(self, synth_args, capsys):
        events, task, tmp_path = synth_args
        ckpt = str(tmp_path / "pre.ckpt")
        assert main(["pretrain", "--events", events, "--out", ckpt, "--embed-dim", "8",
                     "--hidden", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "8",
                     "--max-seq-len", "16", "--epochs", "1", "--batch-size", "8"]) == 0
        for weight in ("nan", "inf", "0", "-1"):
            capsys.readouterr()
            code = main(["finetune", "--events", events, "--checkpoint", ckpt, "--task", task,
                         "--embed-dim", "8", "--folds", "2", "--epochs", "1", "--class-weight", weight])
            err = capsys.readouterr().err
            errors = [l for l in err.splitlines() if l.startswith("error:")]
            assert code == 1 and len(errors) == 1 and "InvalidSpec" in errors[0] and "class_weight" in errors[0]
            assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["--embed-dim 0", "--embed-dim -2", "zero-width cache"])
    def test_pre_embedding_width_below_one_is_one_error_line(self, synth_args, capsys, source):
        events, _task, tmp_path = synth_args
        if source == "zero-width cache":
            cache = str(tmp_path / "cache.bin")
            write_cache(cache, {"lab: a": np.zeros(0, dtype=np.float32)})
            width = ["--embed-cache", cache]
        else:
            width = source.split()
        capsys.readouterr()
        code = main(["pretrain", "--events", events, "--out", str(tmp_path / "pre.ckpt"), *width,
                     "--hidden", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "8",
                     "--max-seq-len", "16", "--epochs", "1", "--batch-size", "8"])
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert code == 1 and len(errors) == 1 and "d_pre" in errors[0]
        assert "Traceback" not in err
        assert not (tmp_path / "pre.ckpt").exists()

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"),
                                            ("--weight-decay", "-1")])
    def test_non_finite_step_size_is_one_error_line(self, synth_args, capsys, flag, value):
        """With one step and no val split, a NaN lr once saved a checkpoint of NaN parameters."""
        events, _task, tmp_path = synth_args
        capsys.readouterr()
        code = main(["pretrain", "--events", events, "--out", str(tmp_path / "pre.ckpt"), "--embed-dim", "8",
                     "--hidden", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "8", "--max-seq-len", "16",
                     "--epochs", "1", "--batch-size", "64", "--ratios", "1,0,0", flag, value])
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert code == 1 and len(errors) == 1 and "InvalidSpec" in errors[0]
        assert flag[2:].replace("-", "_") in errors[0] and "Traceback" not in err
        assert not (tmp_path / "pre.ckpt").exists()

    def test_non_utf8_config_file_is_one_error_line(self, synth_args, capsys):
        events, _task, tmp_path = synth_args
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff\xfesplit_seed=1\n")
        capsys.readouterr()
        assert main(["ingest", "--events", events, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "ConfigMismatch" in errors[0] and str(config) in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["split_seed=-1", "events=a\0b"])
    def test_negative_seed_or_nul_in_config_is_one_error_line(self, synth_args, capsys, line):
        events, _task, tmp_path = synth_args
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        capsys.readouterr()
        assert main(["ingest", "--events", events, "--config", str(config)]) == 1
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "ConfigMismatch" in errors[0]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("nonsense=1\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x.jsonl")]) == 1
        assert "ConfigMismatch" in capsys.readouterr().err


@pytest.fixture()
def pipeline_args(tmp_path):
    """Corpus big enough that every split holds both outcome classes."""
    events = str(tmp_path / "events.jsonl")
    task = str(tmp_path / "task.json")
    code = main(["synth", "--patients", "60", "--features", "8", "--rate", "0.008",
                 "--signal-incidence", "0.3", "--seed", "3", "--out", events,
                 "--task-out", task])
    assert code == 0
    return events, task, tmp_path


class TestTrainingPipeline:
    def test_pretrain_finetune_evaluate(self, pipeline_args, capsys):
        events, task, tmp_path = pipeline_args
        ckpt = str(tmp_path / "pre.ckpt")
        metrics = str(tmp_path / "metrics.csv")
        code = main(["pretrain", "--events", events, "--out", ckpt,
                     "--embed-dim", "8", "--hidden", "16", "--heads", "2", "--layers", "1",
                     "--ffn-dim", "8", "--max-seq-len", "48", "--epochs", "2",
                     "--batch-size", "8", "--lr", "1e-3", "--metrics-out", metrics])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("epoch,split,")
        config, _params = load_checkpoint(ckpt)
        assert config["hidden"] == 16
        header, *rows = open(metrics).read().strip().splitlines()
        assert header == "epoch,split,l_f,l_cat,l_cont,l_total,lr"
        assert len(rows) == 4  # 2 epochs x (train, val)

        task_ckpt = str(tmp_path / "task.ckpt")
        code = main(["finetune", "--events", events, "--checkpoint", ckpt,
                     "--task", task, "--out", task_ckpt, "--embed-dim", "8",
                     "--folds", "2", "--epochs", "2", "--batch-size", "8",
                     "--unfrozen-layers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "auroc: mean" in out

        code = main(["evaluate", "--events", events, "--checkpoint", task_ckpt,
                     "--task", task, "--embed-dim", "8"])
        assert code == 0
        assert "auroc:" in capsys.readouterr().out

    def test_task_window_differs_from_checkpoint(self, synth_args, capsys):
        events, task, tmp_path = synth_args  # the task file labels 1440-minute windows
        ckpt = str(tmp_path / "pre.ckpt")
        assert main(["pretrain", "--events", events, "--out", ckpt, "--embed-dim", "8",
                     "--hidden", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "8",
                     "--max-seq-len", "16", "--epochs", "1", "--batch-size", "8",
                     "--window-minutes", "720"]) == 0
        capsys.readouterr()
        code = main(["finetune", "--events", events, "--checkpoint", ckpt, "--task", task,
                     "--embed-dim", "8", "--folds", "2", "--epochs", "1"])
        assert code == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "ConfigMismatch" in errors[0] and "720" in errors[0]
        assert "Traceback" not in err

    def test_checkpoint_config_mismatch(self, pipeline_args, capsys):
        events, task, tmp_path = pipeline_args
        ckpt = str(tmp_path / "pre.ckpt")
        assert main(["pretrain", "--events", events, "--out", ckpt,
                     "--embed-dim", "8", "--hidden", "16", "--heads", "2", "--layers", "1",
                     "--ffn-dim", "8", "--max-seq-len", "48", "--epochs", "1",
                     "--batch-size", "8"]) == 0
        capsys.readouterr()
        # wrong embedding dimension at fine-tune time must be rejected
        code = main(["finetune", "--events", events, "--checkpoint", ckpt,
                     "--task", task, "--embed-dim", "16", "--folds", "2",
                     "--epochs", "1", "--batch-size", "8"])
        assert code == 1
        assert "ConfigMismatch" in capsys.readouterr().err

    def test_checkpoint_config_block_not_an_object(self, synth_args, capsys):
        events, task, tmp_path = synth_args
        ckpt = str(tmp_path / "bad.ckpt")
        save_checkpoint(ckpt, [], {})
        code = main(["evaluate", "--events", events, "--checkpoint", ckpt, "--task", task, "--embed-dim", "8"])
        assert code == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "FormatError" in errors[0]
        assert "Traceback" not in err
