import json

import pytest

from sql2text import cli
from sql2text.cli import CONFIG_ENV_VAR, build_arg_parser, main
from sql2text.graphs import template_interpret
from sql2text.parser import _MAX_DEPTH, parse
from sql2text.training import TrainConfig

EXAMPLE_QUERY = (
    "SELECT company WHERE assets > val0 AND sales > val0 "
    "AND industry <= val1 AND profits = val2"
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.jsonl"
    sqls = ["SELECT a WHERE b > val0", "SELECT c", "SELECT COUNT d WHERE e = val0"]
    with data.open("w") as fh:
        for sql in sqls:
            fh.write(json.dumps({"sql": sql, "text": template_interpret(parse(sql))}) + "\n")
    ckpt = root / "model.ckpt"
    metrics = root / "metrics.csv"
    code = main([
        "train", "--train", str(data), "--out", str(ckpt), "--metrics", str(metrics),
        "--word-dim", "8", "--hidden", "8", "--hop-size", "1", "--epochs", "2",
        "--batch-size", "2", "--seed", "0",
    ])
    assert code == 0
    return {"data": data, "ckpt": ckpt, "metrics": metrics, "root": root}


class TestParseCommand:
    def test_example_query_ast(self, capsys):
        code, out, _ = run(capsys, "parse", EXAMPLE_QUERY)
        assert code == 0
        ast = json.loads(out)
        assert ast["select_columns"] == ["company"]
        assert len(ast["where"]["children"]) == 4

    def test_golden_nested_query_output(self, capsys):
        sql = "SELECT MAX salary WHERE NOT (team = 'New York' OR pos = val1) AND age > 30"
        code, out, _ = run(capsys, "parse", sql)
        assert code == 0
        assert out == (
            '{"aggregation": "max", "select_columns": ["salary"], "where": {"children": '
            '[{"children": [{"children": [{"column": "team", "comparator": "=", "value": '
            '{"kind": "literal", "text": "new york"}}, {"column": "pos", "comparator": "=", '
            '"value": {"kind": "placeholder", "text": "val_1"}}], "op": "or"}], "op": "not"}, '
            '{"column": "age", "comparator": ">", "value": {"kind": "literal", "text": "30"}}], '
            '"op": "and"}}\n'
        )

    def test_malformed_input_exits_2(self, capsys):
        code, out, err = run(capsys, "parse", "SELECT WHERE")
        assert code == 2
        assert out == ""
        assert "parse error" in err

    def test_nesting_past_the_bound_exits_2(self, capsys):
        deep = "SELECT a WHERE " + "(" * (_MAX_DEPTH + 1) + "b = 1" + ")" * (_MAX_DEPTH + 1)
        code, out, err = run(capsys, "parse", deep)
        assert code == 2
        assert out == ""
        assert f"nested deeper than {_MAX_DEPTH} levels" in err

    def test_non_utf8_argument_before_an_error_exits_2(self, capsys):
        # Python decodes the argument byte 0xff to the lone surrogate U+DCFF.
        code, out, err = run(capsys, "parse", 'SELECT "\udcff" WHERE')
        assert code == 2
        assert out == ""
        assert "at byte 18" in err

    def test_file_input_one_json_line_each(self, capsys, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("SELECT a\nSELECT b\nSELECT c\n")
        code, out, _ = run(capsys, "parse", "--file", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["select_columns"] for line in lines)

    def test_anonymize_flag(self, capsys):
        code, out, _ = run(capsys, "parse", "--anonymize", "SELECT a WHERE b = 7")
        ast = json.loads(out)
        assert ast["where"]["value"] == {"kind": "placeholder", "text": "val_0"}


class TestGraphifyCommand:
    def test_json_output_counts(self, capsys):
        code, out, _ = run(capsys, "graphify", EXAMPLE_QUERY, "--format", "json")
        assert code == 0
        graph = json.loads(out)
        assert len(graph["nodes"]) == 10
        assert len(graph["edges"]) == 10

    def test_undirected_doubles_edges(self, capsys):
        code, out, _ = run(capsys, "graphify", EXAMPLE_QUERY, "--undirected")
        graph = json.loads(out)
        assert len(graph["edges"]) == 20

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "graphify", EXAMPLE_QUERY, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph ")
        assert out.count("{") == out.count("}")


class TestTemplateCommand:
    def test_example_sentence_verbatim(self, capsys):
        code, out, _ = run(capsys, "template", EXAMPLE_QUERY)
        assert code == 0
        assert out.strip() == (
            "which company where assets more than val_0 and sales more than val_0 "
            "and industry less than or equal to val_1 and profits equals val_2"
        )

    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "template", "SELECT name")
        assert out.strip() == "which name"

    def test_count_prefix(self, capsys):
        code, out, _ = run(capsys, "template", "SELECT COUNT player WHERE pos = val0")
        assert out.strip().startswith("how many")


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--samples", "60")
        assert code == 0
        assert "PASS" in out

    def test_float64_mode(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--precision", "float64", "--samples", "40")
        assert code == 0
        assert "float64" in out


class TestTrainGenerateEvaluate:
    def test_metrics_file_written(self, trained):
        lines = trained["metrics"].read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "epoch,train_loss,dev_bleu,grad_norm_mean"

    def test_generate_single_query(self, capsys, trained):
        code, out, _ = run(capsys, "generate", "--checkpoint", str(trained["ckpt"]), "SELECT a")
        assert code == 0
        assert isinstance(out.strip(), str)

    def test_generate_beam_one_equals_greedy(self, capsys, trained):
        _, beam_out, _ = run(
            capsys, "generate", "--checkpoint", str(trained["ckpt"]), "SELECT a", "--beam", "1"
        )
        _, greedy_out, _ = run(
            capsys, "generate", "--checkpoint", str(trained["ckpt"]), "SELECT a", "--greedy"
        )
        assert beam_out == greedy_out

    def test_generate_is_deterministic(self, capsys, trained):
        _, out1, _ = run(capsys, "generate", "--checkpoint", str(trained["ckpt"]), "SELECT c")
        _, out2, _ = run(capsys, "generate", "--checkpoint", str(trained["ckpt"]), "SELECT c")
        assert out1 == out2

    def test_evaluate_writes_report(self, capsys, trained):
        report_path = trained["root"] / "report.json"
        code, out, _ = run(
            capsys, "evaluate", "--checkpoint", str(trained["ckpt"]),
            "--test", str(trained["data"]), "--report", str(report_path),
        )
        assert code == 0
        assert "corpus BLEU-4" in out
        payload = json.loads(report_path.read_text())
        assert "config" in payload and "config_hash" in payload
        assert payload["config"]["word_dim"] == 8

    def test_skipped_lines_are_warned_per_file(self, capsys, trained, tmp_path):
        bad = json.dumps({"sql": "SELECT WHERE", "text": "broken"})
        dev = tmp_path / "dev.jsonl"
        dev.write_text(json.dumps({"sql": "SELECT z", "text": "which z"}) + "\n" + bad + "\n")
        train_data = tmp_path / "train.jsonl"
        train_data.write_text(bad + "\n" + trained["data"].read_text())
        code, _, err = run(
            capsys, "train", "--train", str(train_data), "--dev", str(dev),
            "--out", str(tmp_path / "m.ckpt"), "--word-dim", "4", "--hidden", "4",
            "--hop-size", "1", "--epochs", "1", "--undirected",
        )
        assert code == 0
        assert err.splitlines()[0].startswith("warning: skipped line 1: ")
        assert err.splitlines()[1].startswith("warning: skipped dev line 2: ")
        code, out, err = run(
            capsys, "evaluate", "--checkpoint", str(tmp_path / "m.ckpt"), "--test", str(dev)
        )
        assert code == 0 and "corpus BLEU-4" in out
        assert err.startswith("warning: skipped line 2: ")

    def test_sql_with_a_lone_surrogate_is_a_skipped_line(self, capsys, trained, tmp_path):
        train_data = tmp_path / "train.jsonl"
        bad = json.dumps({"sql": 'SELECT "\ud800" WHERE', "text": "x"})
        train_data.write_text(bad + "\n" + trained["data"].read_text())
        code, _, err = run(
            capsys, "train", "--train", str(train_data), "--out", str(tmp_path / "m.ckpt"),
            "--word-dim", "4", "--hidden", "4", "--hop-size", "1", "--epochs", "1",
        )
        assert code == 0
        assert err.splitlines()[0].startswith("warning: skipped line 1: ")

    def test_missing_checkpoint_is_runtime_error(self, capsys, trained):
        code, _, err = run(capsys, "generate", "--checkpoint", "/nonexistent.ckpt", "SELECT a")
        assert code == 1
        assert err


def _forbidden(*args, **kwargs):
    raise AssertionError("called before the flags were checked")


class TestFlagRanges:
    @pytest.mark.parametrize(
        "flags",
        [
            ["generate", "--beam", "0", "SELECT a"],
            ["generate", "--beam", "-2", "--greedy", "SELECT a"],
            ["generate", "--beam", "two", "SELECT a"],
            ["generate", "--jobs", "2", "SELECT a"],
            ["evaluate", "--test", "{data}", "--beam", "0"],
            ["evaluate", "--test", "{data}", "--jobs", "2"],
        ],
    )
    def test_bad_generation_flag_exits_2_before_loading(self, capsys, monkeypatch, trained, flags):
        monkeypatch.setattr(cli, "load_checkpoint", _forbidden)
        monkeypatch.setattr(cli, "ingest_dataset", _forbidden)
        argv = [flags[0], "--checkpoint", str(trained["ckpt"])]
        argv += [f.format(data=trained["data"]) for f in flags[1:]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_greedy_with_beam_exits_2_before_loading(self, capsys, monkeypatch, trained):
        monkeypatch.setattr(cli, "load_checkpoint", _forbidden)
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--checkpoint", str(trained["ckpt"]), "--greedy", "--beam", "3", "SELECT a"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_infinite_lr_exits_2_before_reading_data(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "ingest_dataset", _forbidden)
        code, _, err = run(
            capsys, "train", "--train", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "m.ckpt"), "--lr", "inf",
        )
        assert code == 2
        assert "lr must be finite and positive" in err and "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_gradcheck_samples_below_one_exits_2(self, capsys, monkeypatch, samples):
        monkeypatch.setattr(cli, "finite_difference_check", _forbidden)
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--samples", samples])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    # Flags of model options that no longer exist.
    @pytest.mark.parametrize(
        "flags",
        [["--attention", "dot"], ["--share-direction-weights"], ["--no-share-direction-weights"]],
    )
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_removed_model_flag_exits_2(self, capsys, monkeypatch, tmp_path, command, flags):
        monkeypatch.setattr(cli, "finite_difference_check", _forbidden)
        monkeypatch.setattr(cli, "ingest_dataset", _forbidden)
        argv = [command, *flags]
        if command == "train":
            argv += ["--train", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "m.ckpt")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


class TestConfigPlumbing:
    def test_config_file_applies_and_flags_win(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"word_dim": 8, "hidden": 8, "hop_size": 2, "epochs": 1}))
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"sql": "SELECT a", "text": "which a"}) + "\n")
        ckpt = tmp_path / "m.ckpt"
        code = main([
            "train", "--config", str(cfg_path), "--train", str(data),
            "--out", str(ckpt), "--hop-size", "1",
        ])
        assert code == 0
        from sql2text.checkpoint import load_checkpoint

        stored = load_checkpoint(ckpt).config
        assert stored["hop_size"] == 1  # flag wins
        assert stored["word_dim"] == 8  # file applies

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        # attention and share_direction_weights name removed model options.
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"sql": "SELECT a", "text": "which a"}) + "\n")
        for key, value in (("nonsense_key", 1), ("attention", "dot"), ("share_direction_weights", True)):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({key: value}))
            code, _, err = run(
                capsys, "train", "--config", str(cfg_path), "--train", str(data),
                "--out", str(tmp_path / "m.ckpt"),
            )
            assert code == 2, key
            assert key in err
            assert not (tmp_path / "m.ckpt").exists()

    def test_negative_length_norm_alpha_is_usage_error(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"sql": "SELECT a", "text": "which a"}) + "\n")
        code, _, err = run(
            capsys, "train", "--train", str(data), "--out", str(tmp_path / "m.ckpt"),
            "--length-norm-alpha", "-0.5",
        )
        assert code == 2
        assert "length_norm_alpha" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_env_var_supplies_default_config(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"word_dim": 8, "hidden": 8, "epochs": 1, "hop_size": 1}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_path))
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"sql": "SELECT a", "text": "which a"}) + "\n")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--train", str(data), "--out", str(ckpt)]) == 0
        from sql2text.checkpoint import load_checkpoint

        assert load_checkpoint(ckpt).config["word_dim"] == 8

    def test_help_enumerates_config_keys(self, capsys):
        from dataclasses import fields

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for f in fields(TrainConfig):
            assert f.name in out, f.name

    def test_train_help_lists_flags_with_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        assert "--word-dim" in out
        assert "(default 300)" in out

    def test_gradcheck_help_shows_the_defaults_it_runs_with(self, capsys):
        import re

        from sql2text.cli import _GRADCHECK_DEFAULTS

        with pytest.raises(SystemExit):
            main(["gradcheck", "--help"])
        out = capsys.readouterr().out
        for name, value in _GRADCHECK_DEFAULTS.items():
            flag = "--" + name.replace("_", "-")
            shown = re.findall(rf"{flag} \S+\s+\(default ([^)]*)\)", out)
            assert shown == [str(value)], (flag, shown)
            assert f"  {name} (default {value!r})" in out

    def test_usage_error_exit_code(self):
        parser = build_arg_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["unknown-command"])
        assert exc.value.code == 2
