"""Command-line exit codes and end-to-end command flows."""

import json
import shutil
import struct

import numpy as np
import pytest

from signscribe import cli, data, evaluation, training
from signscribe import model as jm
from signscribe.config import RunConfig
from signscribe.metrics import bleu


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    data.generate_synthetic(root, seed=21, n_train=30, n_dev=4, n_test=4)
    return root


@pytest.fixture(scope="module")
def other_corpus(tmp_path_factory):
    # 10-gloss inventory: vocabularies cannot match the main corpus
    root = tmp_path_factory.mktemp("cli-other")
    data.generate_synthetic(root, seed=5, n_train=12, n_dev=2, n_test=2,
                            n_glosses=10)
    return root


def train_args(corpus, out_dir, protocol="sign2gloss+text", **extra):
    args = [
        "train",
        "--corpus", str(corpus),
        "--out-dir", str(out_dir),
        "--protocol", protocol,
        "--d", "16",
        "--n-heads", "2",
        "--n-enc-layers", "1",
        "--n-dec-layers", "1",
        "--d-ff", "32",
        "--dropout", "0.0",
        "--batch-size", "8",
        "--max-iterations", "4",
        "--eval-every", "2",
        "--seed", "3",
    ]
    if protocol in ("sign2text", "gloss2text"):
        args += ["--lambda-r", "0", "--lambda-t", "1"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


@pytest.fixture(scope="module")
def narrow_corpus(corpus, tmp_path_factory):
    # the main corpus with every feature file cut to 8 of its 16 columns:
    # the same vocabularies at another input width
    root = tmp_path_factory.mktemp("cli-narrow") / "corpus"
    shutil.copytree(corpus, root)
    for path in (root / "features").glob("*.sltf"):
        data.write_features(path, data.read_features(path)[:, :8])
    return root


@pytest.fixture(scope="module")
def joint_ckpt(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-joint")
    assert cli.main(train_args(corpus, out)) == 0
    return out / "best.sltc"


@pytest.fixture(scope="module")
def gloss2text_ckpt(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-g2t")
    assert cli.main(train_args(corpus, out, protocol="gloss2text")) == 0
    return out / "best.sltc"


@pytest.fixture(scope="module")
def sign2gloss_ckpt(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-s2g")
    assert cli.main(train_args(corpus, out, protocol="sign2gloss", lambda_t=0)) == 0
    return out / "best.sltc"


class TestGenSynthetic:
    def test_writes_corpus(self, tmp_path, capsys):
        code = cli.main([
            "gen-synthetic", "--out", str(tmp_path / "c"), "--seed", "1",
            "--train", "5", "--dev", "2", "--test", "2",
        ])
        assert code == 0
        assert (tmp_path / "c" / "train.jsonl").is_file()
        assert "wrote synthetic corpus" in capsys.readouterr().out

    def test_same_seed_identical(self, tmp_path):
        for name in ("a", "b"):
            cli.main(["gen-synthetic", "--out", str(tmp_path / name),
                      "--seed", "7", "--train", "4", "--dev", "1",
                      "--test", "1"])
        assert ((tmp_path / "a" / "train.jsonl").read_bytes()
                == (tmp_path / "b" / "train.jsonl").read_bytes())

    @pytest.mark.parametrize("flags, message", [
        (["--glosses", "1"], "n_glosses >= 2"),
        (["--glosses", "0"], "n_glosses >= 2"),
        (["--max-glosses", "2"], "min_glosses <= max_glosses"),
        (["--d-in", "0"], "d_in >= 1"),
        (["--train", "-3"], "sample counts >= 0"),
        (["--test", "-1"], "sample counts >= 0"),
        (["--frame-noise", "-1"], "frame_noise"),
        (["--frame-noise", "nan"], "frame_noise"),
        (["--frame-noise", "inf"], "frame_noise"),
    ])
    def test_unusable_settings_are_one_line_config_error(self, tmp_path, capsys,
                                                         flags, message):
        out = tmp_path / "c"
        code = cli.main(["gen-synthetic", "--out", str(out), "--train", "2",
                         "--dev", "1", "--test", "1", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert not out.exists()


class TestTrainCommand:
    def test_missing_corpus_is_config_error(self, tmp_path):
        code = cli.main(train_args(tmp_path / "nowhere", tmp_path / "out"))
        assert code == 2

    def test_odd_width_is_config_error_before_output(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        log = out / "train_log.jsonl"
        log.write_bytes(b'{"iteration": 2}\n')
        assert cli.main(train_args(corpus, out, d=5, n_heads=1)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert log.read_bytes() == b'{"iteration": 2}\n'
        assert not (out / "best.sltc").exists()

    def test_inconsistent_weights_is_config_error(self, corpus, tmp_path):
        code = cli.main(
            train_args(corpus, tmp_path / "out", lambda_r=0.0, lambda_t=0.0)
        )
        assert code == 2

    def test_config_file_with_overrides(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "corpus": str(corpus), "out_dir": str(tmp_path / "out"),
            "d": 16, "n_heads": 2, "n_enc_layers": 1, "n_dec_layers": 1,
            "d_ff": 32, "dropout": 0.0, "batch_size": 8,
            "max_iterations": 4, "eval_every": 2,
        }))
        code = cli.main(["train", "--config", str(cfg_path),
                         "--max-iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stopped after 2 iterations" in out
        assert (tmp_path / "out" / "best.sltc").is_file()
        assert (tmp_path / "out" / "train_log.jsonl").is_file()

    def test_unknown_config_key_is_config_error(self, corpus, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"corpus": str(corpus), "widht": 3}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2

    def test_wrong_typed_config_value_is_config_error(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"corpus": str(corpus), "max_iterations": 2.5}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: max_iterations: must be an integer, got 2.5\n"

    def test_every_override_flag_is_a_config_field(self):
        # overrides are read by RunConfig field name, so a flag without a
        # field would parse and then be silently ignored
        dests = set(vars(cli.build_parser().parse_args(["train"])))
        assert dests - {"command", "func", "config"} <= set(RunConfig().to_dict())

    def test_retired_loss_mode_flag_is_usage_error(self, corpus, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(train_args(corpus, tmp_path / "out", loss_mode="log-domain"))
        assert exc.value.code == 2
        assert "unrecognized arguments: --loss-mode" in capsys.readouterr().err

    def test_diverged_training_is_one_line_error(self, corpus, tmp_path, capsys,
                                                 monkeypatch):
        real = training.batch_losses

        def nan_losses(*args, **kwargs):
            total, *rest = real(*args, **kwargs)
            return (total * np.nan, *rest)

        monkeypatch.setattr(training, "batch_losses", nan_losses)
        code = cli.main(train_args(corpus, tmp_path / "out", max_iterations=20))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite training loss or gradient on "
                              f"{training.MAX_NONFINITE_STEPS} consecutive steps")
        assert err.count("\n") == 1


    def test_zero_width_features_are_one_line_runtime_error(self, corpus, tmp_path, capsys):
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        for path in sorted((bad / "features").iterdir()):
            data.write_features(path, np.zeros((len(data.read_features(path)), 0)))
        code = cli.main(train_args(bad, tmp_path / "out"))
        assert code == 1
        first = json.loads((bad / "train.jsonl").read_text().splitlines()[0])
        assert capsys.readouterr().err == (
            f"error: {first['id']}: feature width 0, expected at least 1\n")


class TestEvaluateCommand:
    def test_greedy_report(self, corpus, joint_ckpt, capsys):
        code = cli.main([
            "evaluate", "--checkpoint", str(joint_ckpt),
            "--corpus", str(corpus), "--split", "dev",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "WER" in out
        assert "BLEU-4" in out

    def test_missing_checkpoint_is_config_error(self, corpus, tmp_path):
        code = cli.main([
            "evaluate", "--checkpoint", str(tmp_path / "none.sltc"),
            "--corpus", str(corpus),
        ])
        assert code == 2

    def test_vocab_mismatch_is_compat_error(self, other_corpus, joint_ckpt):
        code = cli.main([
            "evaluate", "--checkpoint", str(joint_ckpt),
            "--corpus", str(other_corpus),
        ])
        assert code == 3

    def test_corrupt_checkpoint_is_compat_error(self, corpus, tmp_path):
        bad = tmp_path / "bad.sltc"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        code = cli.main([
            "evaluate", "--checkpoint", str(bad), "--corpus", str(corpus),
        ])
        assert code == 3

    def test_wrong_feature_width_is_one_line_compat_error(self, narrow_corpus, joint_ckpt,
                                                           capsys):
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(joint_ckpt),
                         "--corpus", str(narrow_corpus)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("artifact error: ")
        assert "feature width 8 does not match the checkpoint's input width 16" in err
        assert err.count("\n") == 1

    def test_gloss_input_reads_no_feature_width(self, narrow_corpus, gloss2text_ckpt,
                                                capsys):
        code = cli.main(["evaluate", "--checkpoint", str(gloss2text_ckpt),
                         "--corpus", str(narrow_corpus)])
        assert code == 0
        assert "BLEU-4" in capsys.readouterr().out

    def test_identical_invocations_identical_reports(self, corpus, joint_ckpt,
                                                     capsys):
        argv = ["evaluate", "--checkpoint", str(joint_ckpt),
                "--corpus", str(corpus), "--split", "test",
                "--beam-width", "2", "--alpha", "1.0"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_sweep_prints_grid_and_test_report(self, corpus, joint_ckpt,
                                               capsys):
        code = cli.main([
            "evaluate", "--checkpoint", str(joint_ckpt),
            "--corpus", str(corpus), "--sweep",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[sweep] width") == 55
        assert "[sweep] chosen:" in out
        assert "[test]" in out

    def test_sweep_without_translation_is_config_error(self, corpus, sign2gloss_ckpt, capsys):
        capsys.readouterr()
        code = cli.main([
            "evaluate", "--checkpoint", str(sign2gloss_ckpt),
            "--corpus", str(corpus), "--sweep",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "[sweep]" not in captured.out
        assert captured.err.startswith("configuration error: sweep: protocol 'sign2gloss'")
        assert captured.err.count("\n") == 1


class TestTranslateCommand:
    def test_translate_feature_file(self, corpus, joint_ckpt, capsys):
        sample_file = next((corpus / "features").glob("dev-*.sltf"))
        code = cli.main([
            "translate", "--checkpoint", str(joint_ckpt),
            "--features", str(sample_file),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert all(tok[0] in "wF" for tok in line.split() if tok)

    def test_gloss2text_needs_glosses(self, gloss2text_ckpt):
        code = cli.main([
            "translate", "--checkpoint", str(gloss2text_ckpt),
            "--features", "whatever.sltf",
        ])
        assert code == 2

    def test_translate_glosses(self, gloss2text_ckpt, corpus, capsys):
        samples, _, _ = data.load_corpus(corpus, "dev")
        glosses = " ".join(samples[0].glosses)
        code = cli.main([
            "translate", "--checkpoint", str(gloss2text_ckpt),
            "--glosses", glosses, "--beam-width", "2",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("glosses", ["", " ", "  \t "], ids=["empty", "space", "blank"])
    def test_blank_glosses_are_config_error(self, gloss2text_ckpt, capsys, glosses):
        code = cli.main(["translate", "--checkpoint", str(gloss2text_ckpt),
                         "--glosses", glosses])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: glosses: a gloss2text checkpoint "
                                "needs --glosses\n")
        assert captured.out == ""

    def test_sign2gloss_checkpoint_is_one_line_config_error(self, corpus, sign2gloss_ckpt,
                                                            capsys, monkeypatch):
        # refused once the checkpoint is read, before any feature file is
        sample_file = next((corpus / "features").glob("dev-*.sltf"))
        monkeypatch.setattr(cli, "read_features", lambda path: pytest.fail("read " + str(path)))
        capsys.readouterr()
        code = cli.main(["translate", "--checkpoint", str(sign2gloss_ckpt),
                         "--features", str(sample_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "configuration error: translate: protocol 'sign2gloss' trains no sentence decoder")
        assert captured.err.count("\n") == 1

    def test_frame_checkpoint_needs_features(self, joint_ckpt):
        assert cli.main(["translate", "--checkpoint", str(joint_ckpt)]) == 2

    def test_wrong_feature_width_is_compat_error(self, joint_ckpt, tmp_path, capsys):
        bad = tmp_path / "wide.sltf"
        data.write_features(bad, np.zeros((4, 99), dtype=np.float32))
        code = cli.main([
            "translate", "--checkpoint", str(joint_ckpt),
            "--features", str(bad),
        ])
        assert code == 3
        assert capsys.readouterr().err == (f"artifact error: {bad}: feature width 99 does not "
                                           f"match the checkpoint's input width 16\n")

    @pytest.mark.parametrize("frames, message", [
        (0, "empty feature sequence"),
        (np.nan, "non-finite feature values"),
        (np.inf, "non-finite feature values"),
    ])
    def test_unusable_feature_file_is_one_line_error(self, joint_ckpt, tmp_path, capsys,
                                                     frames, message):
        width = training.restore_model(training.checkpoint_load(joint_ckpt))[0].d_in
        if frames == 0:
            feat = np.zeros((0, width), dtype=np.float32)
        else:
            feat = np.ones((5, width), dtype=np.float32)
            feat[2, 1] = frames
        bad = tmp_path / "bad.sltf"
        data.write_features(bad, feat)
        code = cli.main(["translate", "--checkpoint", str(joint_ckpt), "--features", str(bad)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_feature_path_is_one_line_error(self, joint_ckpt, tmp_path, capsys,
                                                       kind):
        path = tmp_path / "x.sltf"
        if kind == "directory":
            path.mkdir()
        code = cli.main(["translate", "--checkpoint", str(joint_ckpt), "--features", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read feature file: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command, size", [
    ("evaluate", "0"), ("evaluate", "-1"), ("sweep", "0"), ("sweep", "-1"),
    ("pipeline", "0"), ("pipeline", "-1"),
])
def test_batch_size_below_one_is_one_line_config_error(corpus, joint_ckpt, gloss2text_ckpt,
                                                       capsys, command, size):
    if command == "pipeline":
        argv = ["pipeline", "--recognizer", str(joint_ckpt),
                "--translator", str(gloss2text_ckpt)]
    else:
        argv = ["evaluate", "--checkpoint", str(joint_ckpt)]
        argv += ["--sweep"] if command == "sweep" else []
    capsys.readouterr()
    assert cli.main(argv + ["--corpus", str(corpus), "--batch-size", size]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: batch size must be >= 1, got {size}\n"
    assert "[sweep]" not in captured.out and "[stage1]" not in captured.out


@pytest.mark.parametrize("command", ["evaluate", "pipeline"])
def test_batch_size_is_checked_before_any_checkpoint(corpus, tmp_path, capsys, command):
    missing = str(tmp_path / "none.sltc")
    if command == "pipeline":
        argv = ["pipeline", "--recognizer", missing, "--translator", missing]
    else:
        argv = ["evaluate", "--checkpoint", missing]
    capsys.readouterr()
    assert cli.main(argv + ["--corpus", str(corpus), "--batch-size", "0"]) == 2
    assert capsys.readouterr().err == "configuration error: batch size must be >= 1, got 0\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--beam-width", "-1", "beam width must be >= 0, got -1"),
    ("--alpha", "5", "length-penalty exponent must lie in [0, 2], got 5.0"),
    ("--max-len-cap", "0", "max_len must be >= 1, got 0"),
])
@pytest.mark.parametrize("command", [
    "evaluate sign2gloss", "sweep sign2gloss", "pipeline sign2gloss", "evaluate joint",
    "translate joint",
])
def test_bad_decode_flag_is_one_line_config_error(corpus, joint_ckpt, gloss2text_ckpt,
                                                  sign2gloss_ckpt, capsys, monkeypatch,
                                                  command, flag, value, message):
    # checked where the command enters, before any checkpoint is read: a
    # checkpoint that decodes no sentence must not let them pass, and a
    # translating one must not search the split first
    name, kind = command.split()
    ckpt = str(sign2gloss_ckpt if kind == "sign2gloss" else joint_ckpt)
    if name == "pipeline":
        argv = ["pipeline", "--recognizer", ckpt, "--translator", str(gloss2text_ckpt),
                "--corpus", str(corpus)]
    elif name == "translate":
        sample_file = next((corpus / "features").glob("dev-*.sltf"))
        argv = ["translate", "--checkpoint", ckpt, "--features", str(sample_file)]
    else:
        argv = ["evaluate", "--checkpoint", ckpt, "--corpus", str(corpus)]
        argv += ["--sweep"] if name == "sweep" else []
    monkeypatch.setattr(cli, "checkpoint_load", lambda path: pytest.fail("read " + str(path)))
    capsys.readouterr()
    assert cli.main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n"
    assert captured.out == ""


class TestPipelineCommand:
    def test_two_stage_run(self, corpus, joint_ckpt, gloss2text_ckpt, capsys):
        code = cli.main([
            "pipeline", "--recognizer", str(joint_ckpt),
            "--translator", str(gloss2text_ckpt),
            "--corpus", str(corpus), "--split", "test",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[stage1] WER" in out
        assert "[stage2] BLEU-1" in out

    def test_oracle_glosses_bypass_stage_one(self, corpus, joint_ckpt,
                                             gloss2text_ckpt, capsys):
        code = cli.main([
            "pipeline", "--recognizer", str(joint_ckpt),
            "--translator", str(gloss2text_ckpt),
            "--corpus", str(corpus), "--oracle-glosses",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle glosses" in out
        # stage 2 on the reference glosses scores what evaluate scores on test
        model, gloss_vocab, text_vocab = training.restore_model(
            training.checkpoint_load(gloss2text_ckpt))
        samples, _, _ = data.load_corpus(corpus, "test")
        b = evaluation.evaluate_corpus(model, samples, gloss_vocab, text_vocab,
                                       "gloss2text").bleu
        assert out.splitlines()[-1] == (
            f"[stage2] BLEU-1 {b.bleu1:.2f}  BLEU-2 {b.bleu2:.2f}  BLEU-3 {b.bleu3:.2f}  "
            f"BLEU-4 {b.bleu4:.2f}  (BP {b.brevity_penalty:.3f})")

    def test_wrong_translator_protocol_is_compat_error(self, corpus,
                                                       joint_ckpt):
        code = cli.main([
            "pipeline", "--recognizer", str(joint_ckpt),
            "--translator", str(joint_ckpt),
            "--corpus", str(corpus),
        ])
        assert code == 3

    def test_translator_without_recognition_rejected(self, corpus,
                                                     gloss2text_ckpt):
        code = cli.main([
            "pipeline", "--recognizer", str(gloss2text_ckpt),
            "--translator", str(gloss2text_ckpt),
            "--corpus", str(corpus),
        ])
        assert code == 3

    def test_wrong_feature_width_is_one_line_compat_error(self, narrow_corpus,
                                                           sign2gloss_ckpt, gloss2text_ckpt,
                                                           capsys):
        capsys.readouterr()
        code = cli.main([
            "pipeline", "--recognizer", str(sign2gloss_ckpt),
            "--translator", str(gloss2text_ckpt), "--corpus", str(narrow_corpus),
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("artifact error: ")
        assert "does not match the checkpoint's input width 16" in captured.err
        assert captured.err.count("\n") == 1
        assert "[stage1]" not in captured.out

    def test_missing_translator_is_config_error(self, corpus, joint_ckpt,
                                                tmp_path):
        code = cli.main([
            "pipeline", "--recognizer", str(joint_ckpt),
            "--translator", str(tmp_path / "none.sltc"),
            "--corpus", str(corpus),
        ])
        assert code == 2


def decode_split(ckpt, corpus, width, alpha=1.0):
    """The dev samples and the sentences evaluate_corpus scores for them."""
    loaded = training.checkpoint_load(ckpt)
    model, gloss_vocab, text_vocab = training.restore_model(loaded)
    protocol = loaded.footer["protocol"]
    samples, _, _ = data.load_corpus(corpus, "dev")
    encoded = evaluation.encode_split(model, samples, gloss_vocab, text_vocab, protocol)
    sentences = evaluation.decode_sentences(model, encoded, text_vocab, width, alpha)
    report = evaluation.evaluate_corpus(model, samples, gloss_vocab, text_vocab, protocol,
                                        beam_width=width, alpha=alpha)
    assert report.bleu == bleu([list(s.sentence) for s in samples], sentences)
    return samples, sentences


class TestTranslateMatchesEvaluation:
    @pytest.mark.parametrize("width", [0, 3])
    def test_frame_checkpoint(self, corpus, joint_ckpt, capsys, width):
        samples, sentences = decode_split(joint_ckpt, corpus, width)
        for sample, sentence in zip(samples, sentences):
            code = cli.main([
                "translate", "--checkpoint", str(joint_ckpt),
                "--features", str(corpus / "features" / f"{sample.id}.sltf"),
                "--beam-width", str(width), "--alpha", "1.0",
            ])
            assert code == 0
            assert capsys.readouterr().out.split() == sentence

    @pytest.mark.parametrize("width", [0, 3])
    def test_gloss2text_checkpoint(self, corpus, gloss2text_ckpt, capsys, width):
        samples, sentences = decode_split(gloss2text_ckpt, corpus, width)
        for sample, sentence in zip(samples, sentences):
            code = cli.main([
                "translate", "--checkpoint", str(gloss2text_ckpt),
                "--glosses", " ".join(sample.glosses),
                "--beam-width", str(width), "--alpha", "1.0",
            ])
            assert code == 0
            assert capsys.readouterr().out.split() == sentence


def _overwrite_footer_bytes(raw):
    at = raw.rindex(b'"protocol"')
    return raw[:at] + b"#####" + raw[at + 5:]


def _non_utf8_tensor_name(raw):
    # 12-byte header, then the first tensor's u16 name length and its name
    return raw[:14] + b"\xff" + raw[15:]


def _pad_replace(raw, start, end, new):
    """Put new in raw[start:end], padded with JSON whitespace to the same length."""
    return raw[:start] + new.ljust(end - start) + raw[end:]


def _footer_model_not_an_object(raw):
    start = raw.rindex(b'"model":') + len(b'"model":')
    return _pad_replace(raw, start, raw.index(b"}", start) + 1, b"5")


def _non_string_text_token(raw):
    # the last token, so the special tokens before it still match
    end = raw.index(b"]", raw.rindex(b'"text_tokens":['))
    return _pad_replace(raw, raw.rindex(b",", 0, end) + 1, end, b"7")


def _stored_value(name, value):
    def corrupt(raw):
        at = raw.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        at += 1 + 4 * raw[at]  # the rank byte, then one u32 per dimension
        return raw[:at] + struct.pack("<d", value) + raw[at + 8:]
    return corrupt


CHECKPOINT_CORRUPTIONS = {
    "footer_not_json": _overwrite_footer_bytes,
    "tensor_name_not_utf8": _non_utf8_tensor_name,
    "missing_bn_running_stats":
        lambda raw: raw.replace(b"spatial.bn_running_mean", b"spatial.bn_running_MEAN"),
    "footer_without_protocol":
        lambda raw: raw.replace(b'"protocol":', b'"protocoL":'),
    "unknown_model_hyperparameter": lambda raw: raw.replace(b'"d_ff":', b'"d_fg":'),
    "footer_model_not_an_object": _footer_model_not_an_object,
    "non_string_text_token": _non_string_text_token,
    "zero_heads": lambda raw: raw.replace(b'"n_heads":2', b'"n_heads":0'),
    "nan_parameter": _stored_value(b"words.table", float("nan")),
    "inf_running_variance": _stored_value(b"spatial.bn_running_var", float("inf")),
}


class TestArtifactErrors:
    @pytest.mark.parametrize("corruption", sorted(CHECKPOINT_CORRUPTIONS))
    def test_malformed_checkpoint_is_one_line_artifact_error(
        self, corpus, joint_ckpt, tmp_path, capsys, corruption
    ):
        raw = joint_ckpt.read_bytes()
        bad_raw = CHECKPOINT_CORRUPTIONS[corruption](raw)
        assert len(bad_raw) == len(raw) and bad_raw != raw
        bad = tmp_path / "bad.sltc"
        bad.write_bytes(bad_raw)
        sample_file = next((corpus / "features").glob("dev-*.sltf"))
        code = cli.main(["translate", "--checkpoint", str(bad),
                         "--features", str(sample_file)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("artifact error: ")
        assert err.count("\n") == 1

    def test_odd_width_checkpoint_is_artifact_error_at_load(self, tmp_path, capsys,
                                                          monkeypatch):
        # footer and tensor shapes both say d = 5: a model built past the size rule
        with monkeypatch.context() as patch:
            patch.setattr(jm, "check_sizes", lambda sizes: None)
            odd = jm.JointModel(d_in=3, d=5, n_heads=1, n_enc_layers=1, n_dec_layers=1,
                                n_glosses=3, n_words=5, d_ff=4, dropout=0.0)
        gloss = data.Vocabulary({"A"}, data.GLOSS_SPECIALS)
        text = data.Vocabulary({"w"}, data.TEXT_SPECIALS)
        path = training.checkpoint_save(tmp_path / "odd.sltc", odd, gloss, text, "sign2text")
        assert training.checkpoint_load(path).footer["model"]["d"] == 5
        # the feature path does not exist: the file must be refused before it is read
        code = cli.main(["translate", "--checkpoint", str(path),
                         "--features", str(tmp_path / "missing.sltf")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("artifact error: ") and err.count("\n") == 1

    def test_empty_split_is_one_line_runtime_error(self, corpus, joint_ckpt, tmp_path,
                                                   capsys):
        empty = tmp_path / "corpus"
        shutil.copytree(corpus, empty)
        (empty / "test.jsonl").write_text("")
        code = cli.main(["evaluate", "--checkpoint", str(joint_ckpt),
                         "--corpus", str(empty), "--split", "test"])
        assert code == 1
        assert capsys.readouterr().err == "error: cannot score an empty split\n"

    @pytest.mark.parametrize("change, message", [
        (lambda rec, first: {**rec, "features": "../" + rec["features"]},
         "features path '../features/dev-00001.sltf' leaves the corpus root"),
        (lambda rec, first: {**rec, "id": first["id"]}, "duplicate sample id 'dev-00000'"),
        (lambda rec, first: {**rec, "features": "."},
         "features path '.' names the corpus root, not a file"),
    ], ids=["escaping_features_path", "duplicate_id", "features_naming_the_root"])
    def test_bad_manifest_record_is_one_line_runtime_error(self, corpus, joint_ckpt, tmp_path,
                                                           capsys, change, message):
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        lines = (bad / "dev.jsonl").read_text().splitlines()
        lines[1] = json.dumps(change(json.loads(lines[1]), json.loads(lines[0])))
        (bad / "dev.jsonl").write_text("\n".join(lines) + "\n")
        code = cli.main(["evaluate", "--checkpoint", str(joint_ckpt),
                         "--corpus", str(bad), "--split", "dev"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad / 'dev.jsonl'}:2: {message}\n"

    def test_non_string_manifest_gloss_is_one_line_runtime_error(self, corpus, joint_ckpt,
                                                                  tmp_path, capsys):
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        lines = (bad / "dev.jsonl").read_text().splitlines()
        rec = json.loads(lines[1])
        rec["gloss"] = rec["gloss"].split()
        lines[1] = json.dumps(rec)
        (bad / "dev.jsonl").write_text("\n".join(lines) + "\n")
        code = cli.main(["evaluate", "--checkpoint", str(joint_ckpt),
                         "--corpus", str(bad), "--split", "dev"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad / 'dev.jsonl'}:2: field 'gloss' is not a string\n")

    def test_missing_feature_file_is_one_line_runtime_error(self, corpus, joint_ckpt, tmp_path,
                                                            capsys):
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        missing = bad / "features" / "dev-00001.sltf"
        missing.unlink()
        code = cli.main(["evaluate", "--checkpoint", str(joint_ckpt),
                         "--corpus", str(bad), "--split", "dev"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: cannot read feature file: ")
        assert err.count("\n") == 1
