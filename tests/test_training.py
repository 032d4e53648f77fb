"""Optimizer, scheduler, checkpoint format, and training loop tests."""

import functools
import hashlib
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import data, training
from signscribe.autodiff import Tensor
from signscribe.config import RunConfig
from signscribe.errors import (
    CheckpointError,
    ContractError,
    DimensionError,
    NonFiniteLossError,
)
from signscribe.evaluation import EvalReport, evaluate_corpus
from signscribe.metrics import BleuReport, WerReport
from signscribe.model import JointModel
from signscribe.training import (
    MAX_NONFINITE_STEPS,
    Checkpoint,
    SchedulerState,
    adam_step,
    checkpoint_load,
    checkpoint_save,
    init_optimizer,
    restore_model,
    scheduler_update,
    train,
)


def leaf(values):
    t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


class TestAdam:
    def test_zero_gradient_zero_decay_is_identity(self):
        p = leaf([1.0, -2.0, 3.0])
        p.grad = np.zeros(3)
        params = {"p": p}
        state = init_optimizer(params, lr=1e-3, weight_decay=0.0)
        adam_step(params, state)
        assert np.array_equal(p.data, [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_closed_form(self):
        # theta=0, g=1: m_hat = v_hat = 1, so the update is
        # -lr * 1 / (1 + eps), which is -lr to within eps.
        p = leaf([0.0])
        p.grad = np.array([1.0])
        params = {"p": p}
        state = init_optimizer(params, lr=1e-3, weight_decay=0.0)
        adam_step(params, state)
        assert np.isclose(p.data[0], -1e-3, rtol=1e-7)

    def test_two_steps_match_hand_trace(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.998, 1e-8
        g = 0.5
        p = leaf([0.2])
        params = {"p": p}
        state = init_optimizer(params, lr=lr, beta1=b1, beta2=b2, eps=eps,
                               weight_decay=0.0)
        theta, m, v = 0.2, 0.0, 0.0
        for t in (1, 2):
            p.grad = np.array([g])
            adam_step(params, state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.isclose(p.data[0], theta, atol=1e-15)

    def test_weight_decay_is_additive(self):
        # zero gradient, theta=1, wd=0.1 behaves like g=0.1 on step one
        p = leaf([1.0])
        p.grad = np.array([0.0])
        params = {"p": p}
        state = init_optimizer(params, lr=1e-3, weight_decay=0.1)
        adam_step(params, state)
        assert np.isclose(p.data[0], 1.0 - 1e-3, rtol=1e-6)

    def test_missing_gradient_still_decays(self):
        p = leaf([2.0])
        p.grad = None
        params = {"p": p}
        state = init_optimizer(params, lr=1e-3, weight_decay=0.5)
        adam_step(params, state)
        assert p.data[0] < 2.0

    def test_shape_mismatch_rejected(self):
        p = leaf([1.0, 2.0])
        p.grad = np.zeros(2)
        params = {"p": p}
        state = init_optimizer(params, lr=1e-3)
        state.m["p"] = np.zeros(3)
        with pytest.raises(DimensionError):
            adam_step(params, state)

    def test_unknown_parameter_rejected(self):
        p = leaf([1.0])
        p.grad = np.zeros(1)
        state = init_optimizer({}, lr=1e-3)
        with pytest.raises(ContractError):
            adam_step({"p": p}, state)

    @pytest.mark.parametrize("seed", range(6))
    def test_single_step_decreases_convex_quadratic(self, seed):
        rng = np.random.default_rng(seed)
        p = leaf(rng.normal(size=5))
        params = {"p": p}
        state = init_optimizer(params, lr=1e-3, weight_decay=0.0)
        before = 0.5 * float(np.sum(p.data ** 2))
        p.grad = p.data.copy()
        adam_step(params, state)
        after = 0.5 * float(np.sum(p.data ** 2))
        assert after < before

    def test_quadratic_converges_over_many_steps(self):
        p = leaf([3.0, -2.0])
        params = {"p": p}
        state = init_optimizer(params, lr=1e-2, weight_decay=0.0)
        for _ in range(600):
            p.grad = p.data.copy()
            adam_step(params, state)
        assert np.all(np.abs(p.data) < 0.5)


def former_adam_step(params, state):
    """adam_step as it was before it updated the moments in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_in_place_adam_is_bitwise_the_former_formula(weight_decay):
    rng = np.random.default_rng(31)
    shapes = {"w": (6, 5), "b": (5,), "skipped": (3,)}
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    sides = []
    for step_fn in (adam_step, former_adam_step):
        params = {name: leaf(v.copy()) for name, v in values.items()}
        state = init_optimizer(params, lr=3e-3, weight_decay=weight_decay)
        sides.append((step_fn, params, state))
    for step in range(20):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                 for name, shape in shapes.items()}
        grads["skipped"] = None if step % 3 else grads["skipped"]  # a head without grads
        for step_fn, params, state in sides:
            for name, p in params.items():
                p.grad = None if grads[name] is None else grads[name].copy()
            step_fn(params, state)
        (_, new, new_state), (_, old, old_state) = sides
        for name in shapes:
            assert new[name].data.tobytes() == old[name].data.tobytes(), (step, name)
            assert new_state.m[name].tobytes() == old_state.m[name].tobytes()
            assert new_state.v[name].tobytes() == old_state.v[name].tobytes()


class TestScheduler:
    def test_first_eval_counts_as_improvement(self):
        state = SchedulerState(minimize=True)
        decision = scheduler_update(state, 1e-3, 50.0)
        assert decision.action == "none"
        assert decision.improved
        assert state.best == 50.0

    def test_improvement_resets_counter(self):
        state = SchedulerState(patience=8)
        scheduler_update(state, 1e-3, 10.0)
        for _ in range(5):
            scheduler_update(state, 1e-3, 20.0)
        assert state.evals_since_improvement == 5
        decision = scheduler_update(state, 1e-3, 5.0)
        assert decision.improved
        assert state.evals_since_improvement == 0

    def test_eight_flat_evals_reduce_by_factor(self):
        state = SchedulerState(patience=8, factor=0.7)
        scheduler_update(state, 1e-3, 10.0)
        actions = [scheduler_update(state, 1e-3, 10.0) for _ in range(8)]
        assert [d.action for d in actions[:7]] == ["none"] * 7
        assert actions[7].action == "reduce_lr"
        assert np.isclose(actions[7].lr, 7e-4)

    def test_equal_score_is_not_improvement(self):
        state = SchedulerState(patience=2, minimize=True)
        scheduler_update(state, 1e-3, 10.0)
        assert not scheduler_update(state, 1e-3, 10.0).improved

    def test_maximize_direction(self):
        state = SchedulerState(minimize=False, patience=2)
        scheduler_update(state, 1e-3, 10.0)
        assert scheduler_update(state, 1e-3, 11.0).improved
        assert not scheduler_update(state, 1e-3, 9.0).improved

    def test_floor_crossing_stops(self):
        state = SchedulerState(patience=1, factor=0.7, floor=1e-6)
        scheduler_update(state, 1.2e-6, 10.0)
        decision = scheduler_update(state, 1.2e-6, 10.0)
        assert decision.action == "stop"
        assert decision.lr == 1.2e-6  # never set below the floor

    def test_reduction_landing_on_floor_is_allowed(self):
        state = SchedulerState(patience=1, factor=0.5, floor=5e-4)
        scheduler_update(state, 1e-3, 10.0)
        decision = scheduler_update(state, 1e-3, 10.0)
        assert decision.action == "reduce_lr"
        assert decision.lr == 5e-4

    def test_counter_resets_after_reduction(self):
        state = SchedulerState(patience=2, factor=0.7)
        scheduler_update(state, 1e-3, 10.0)
        scheduler_update(state, 1e-3, 10.0)
        assert scheduler_update(state, 1e-3, 10.0).action == "reduce_lr"
        assert state.evals_since_improvement == 0
        # patience must be exhausted again before the next reduction
        assert scheduler_update(state, 7e-4, 10.0).action == "none"


def tiny_model(seed=0):
    return JointModel(
        d_in=4, d=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        n_glosses=5, n_words=7, d_ff=16, dropout=0.0, seed=seed,
    )


def test_seeded_initial_weights_are_pinned():
    # an integer seed draws the same values in the same order as it always has
    h = hashlib.sha256()
    for name, p in tiny_model(seed=4).named_parameters().items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == "518bd0471547a51d598d8caea2636840c528e9e9f1424afdc26eb609ad46aaff"


def tiny_vocabs():
    gloss = data.Vocabulary({"A", "B", "C"}, data.GLOSS_SPECIALS)
    text = data.Vocabulary({"x", "y", "z"}, data.TEXT_SPECIALS)
    return gloss, text


class TestCheckpointFormat:
    def saved(self, tmp_path, with_optimizer=True):
        model = tiny_model(seed=4)
        gloss, text = tiny_vocabs()
        optimizer = None
        scheduler = None
        if with_optimizer:
            params = model.trainable_parameters("sign2gloss+text")
            optimizer = init_optimizer(params, lr=5e-4)
            for p in params.values():
                p.grad = np.full(p.data.shape, 0.01)
            adam_step(params, optimizer)
            scheduler = SchedulerState(best=42.5, evals_since_improvement=3)
        path = checkpoint_save(
            tmp_path / "model.sltc", model, gloss, text, "sign2gloss+text",
            optimizer, scheduler, extra={"iteration": 17},
        )
        return path, model, gloss, text, optimizer, scheduler

    def test_round_trip_restores_tensors_bitwise(self, tmp_path):
        path, model, gloss, text, optimizer, scheduler = self.saved(tmp_path)
        ckpt = checkpoint_load(path)
        restored, gloss2, text2 = restore_model(ckpt)
        for name, p in model.named_parameters().items():
            assert np.array_equal(restored.named_parameters()[name].data, p.data), name
        for name, buf in model.named_buffers().items():
            assert np.array_equal(restored.named_buffers()[name], buf), name
        assert gloss2 == gloss
        assert text2 == text
        # the optimizer and scheduler state is written, though nothing reads it back
        for name in optimizer.m:
            assert np.array_equal(ckpt.tensors[f"adam.m.{name}"], optimizer.m[name]), name
            assert np.array_equal(ckpt.tensors[f"adam.v.{name}"], optimizer.v[name]), name
        assert ckpt.footer["optimizer"]["step"] == optimizer.step
        assert ckpt.footer["optimizer"]["lr"] == optimizer.lr
        assert SchedulerState(**ckpt.footer["scheduler"]) == scheduler
        assert ckpt.footer["extra"]["iteration"] == 17

    def test_restore_draws_no_initial_weights(self, tmp_path, monkeypatch):
        path, model, *_ = self.saved(tmp_path)
        ckpt = checkpoint_load(path)

        def no_draws(*args, **kwargs):
            raise AssertionError("restore_model drew initial weights")

        monkeypatch.setattr("signscribe.model.np.random.default_rng", no_draws)
        restored, _, _ = restore_model(ckpt)
        for name, p in model.named_parameters().items():
            assert restored.named_parameters()[name].data.tobytes() == p.data.tobytes(), name

    def test_resave_is_byte_identical(self, tmp_path):
        path, *_ = self.saved(tmp_path, with_optimizer=False)
        ckpt = checkpoint_load(path)
        model2, gloss2, text2 = restore_model(ckpt)
        path2 = checkpoint_save(
            tmp_path / "again.sltc", model2, gloss2, text2,
            ckpt.footer["protocol"], extra=ckpt.footer["extra"],
        )
        assert path.read_bytes() == path2.read_bytes()

    def test_same_training_state_saves_identical_bytes(self, tmp_path):
        path, model, gloss, text, optimizer, scheduler = self.saved(tmp_path)
        path2 = checkpoint_save(
            tmp_path / "again.sltc", model, gloss, text, "sign2gloss+text",
            optimizer, scheduler, extra={"iteration": 17},
        )
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path, model, gloss, text, *_ = self.saved(tmp_path)
        before = path.read_bytes()

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        # "a" sorts first and is written; "b" then fails mid-file
        monkeypatch.setattr(training, "_collect_tensors",
                            lambda *_: {"a": np.zeros(3), "b": Unwritable()})
        with pytest.raises(OSError, match="disk full"):
            checkpoint_save(path, model, gloss, text, "sign2gloss+text")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_without_optimizer(self, tmp_path):
        path, *_ = self.saved(tmp_path, with_optimizer=False)
        ckpt = checkpoint_load(path)
        assert ckpt.footer["optimizer"] is None
        assert ckpt.footer["scheduler"] is None
        assert not any(n.startswith("adam.") for n in ckpt.tensors)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.sltc"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_load(path)

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "x.sltc"
        path.write_bytes(b"SLTC" + struct.pack("<II", 99, 0) + struct.pack("<I", 2) + b"{}")
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(path)

    @pytest.mark.parametrize("keep", [4, 11, 40, 200])
    def test_truncation_detected(self, tmp_path, keep):
        path, *_ = self.saved(tmp_path)
        clipped = tmp_path / "clipped.sltc"
        clipped.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_load(clipped)

    @pytest.mark.parametrize("field", [
        "header", "name length", "name", "rank", "dims", "data", "footer length", "footer",
    ])
    def test_cut_inside_each_field_names_it(self, tmp_path, field):
        path, *_ = self.saved(tmp_path)
        raw = path.read_bytes()
        # the first tensor's fields, in file order
        name_len = struct.unpack_from("<H", raw, 12)[0]
        name = raw[14:14 + name_len].decode()
        rank_at = 14 + name_len
        dims_at = rank_at + 1
        data_at = dims_at + 4 * raw[rank_at]
        footer_len_at = raw.rindex(b'{"extra":') - 4
        keep, message = {
            "header": (7, "header"),
            "name length": (13, "tensor name"),
            "name": (14 + name_len - 1, "tensor name"),
            "rank": (rank_at, "tensor rank"),
            "dims": (dims_at + 3, "tensor dims"),
            "data": (data_at + 11, f"tensor {name}"),
            "footer length": (footer_len_at + 2, "footer length"),
            "footer": (len(raw) - 5, "footer"),
        }[field]
        clipped = tmp_path / "clipped.sltc"
        clipped.write_bytes(raw[:keep])
        with pytest.raises(CheckpointError) as info:
            checkpoint_load(clipped)
        assert str(info.value) == f"{clipped}: truncated checkpoint ({message})"

    @staticmethod
    def one_tensor_file(path, name: bytes, dims, footer: bytes = b"{}"):
        values = struct.pack(f"<{math.prod(dims)}d", *[0.5] * math.prod(dims))
        path.write_bytes(
            b"SLTC" + struct.pack("<II", training.CHECKPOINT_VERSION, 1)
            + struct.pack("<H", len(name)) + name
            + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims) + values
            + struct.pack("<I", len(footer)) + footer
        )
        return path

    def test_hand_built_file_loads(self, tmp_path):
        path = self.one_tensor_file(tmp_path / "x.sltc", b"w", (2, 3), b'{"k":1}')
        ckpt = checkpoint_load(path)
        assert ckpt.footer == {"k": 1}
        assert np.array_equal(ckpt.tensors["w"], np.full((2, 3), 0.5))

    def test_rank_above_numpy_limit_names_the_tensor(self, tmp_path):
        path = self.one_tensor_file(tmp_path / "x.sltc", b"deep.w", (1,) * 65)
        with pytest.raises(CheckpointError, match=r"x\.sltc: tensor deep\.w: .*dimension"):
            checkpoint_load(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = self.one_tensor_file(tmp_path / "x.sltc", b"\xffw", (2,))
        with pytest.raises(CheckpointError, match="tensor name is not UTF-8"):
            checkpoint_load(path)

    @pytest.mark.parametrize("footer, message", [
        (b"{not json", "malformed footer"),
        (b'{"k":"\xff"}', "malformed footer"),
        (b"[1, 2]", "footer is not a JSON object"),
    ])
    def test_bad_footer_rejected(self, tmp_path, footer, message):
        path = self.one_tensor_file(tmp_path / "x.sltc", b"w", (2,), footer)
        with pytest.raises(CheckpointError, match=message):
            checkpoint_load(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path, *_ = self.saved(tmp_path)
        bloated = tmp_path / "bloated.sltc"
        bloated.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint_load(bloated)

    def test_missing_tensor_rejected(self, tmp_path):
        path, *_ = self.saved(tmp_path)
        ckpt = checkpoint_load(path)
        tensors = dict(ckpt.tensors)
        del tensors["spatial.weight"]
        with pytest.raises(CheckpointError, match="spatial.weight"):
            restore_model(Checkpoint(tensors=tensors, footer=ckpt.footer))

    def test_shape_mismatch_rejected(self, tmp_path):
        path, *_ = self.saved(tmp_path)
        ckpt = checkpoint_load(path)
        tensors = dict(ckpt.tensors)
        tensors["spatial.weight"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError, match="shape"):
            restore_model(Checkpoint(tensors=tensors, footer=ckpt.footer))

    def test_tampered_vocab_order_rejected(self, tmp_path):
        path, *_ = self.saved(tmp_path)
        ckpt = checkpoint_load(path)
        footer = dict(ckpt.footer)
        footer["gloss_tokens"] = list(reversed(footer["gloss_tokens"]))
        with pytest.raises(CheckpointError, match="order|vocabular"):
            restore_model(Checkpoint(tensors=ckpt.tensors, footer=footer))

    @pytest.mark.parametrize("field, value, message", [
        ("model", 5, "'model' is not an object"),
        ("text_tokens", ["<pad>", "<bos>", "<eos>", "<unk>", "x", "y", 7],
         "'text_tokens' is not a list of strings"),
        ("gloss_tokens", "<blank><pad>ABC", "'gloss_tokens' is not a list of strings"),
        ("protocol", "sign2speech", "no known protocol"),
    ])
    def test_malformed_footer_field_rejected(self, tmp_path, field, value, message):
        path, *_ = self.saved(tmp_path)
        ckpt = checkpoint_load(path)
        footer = {**ckpt.footer, field: value}
        with pytest.raises(CheckpointError, match=message):
            restore_model(Checkpoint(tensors=ckpt.tensors, footer=footer))

    @pytest.mark.parametrize("name, value", [("n_heads", 0), ("d", -8), ("d_ff", 16.0),
                                             ("n_words", True)])
    def test_non_positive_integer_hyperparameter_rejected(self, tmp_path, name, value):
        path, *_ = self.saved(tmp_path)
        ckpt = checkpoint_load(path)
        footer = {**ckpt.footer, "model": {**ckpt.footer["model"], name: value}}
        with pytest.raises(CheckpointError, match=f"'{name}' is not a positive integer"):
            restore_model(Checkpoint(tensors=ckpt.tensors, footer=footer))

    @pytest.mark.parametrize("name", ["words.table", "spatial.bn_running_var"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stored_values_rejected(self, tmp_path, name, bad):
        path, *_ = self.saved(tmp_path)
        ckpt = checkpoint_load(path)
        tensors = dict(ckpt.tensors)
        tensors[name] = tensors[name].copy()
        tensors[name].flat[1] = bad
        with pytest.raises(CheckpointError, match=f"{name}: non-finite"):
            restore_model(Checkpoint(tensors=tensors, footer=ckpt.footer))


@functools.lru_cache(maxsize=1)
def tiny_checkpoint_bytes() -> bytes:
    gloss, text = tiny_vocabs()
    with tempfile.TemporaryDirectory() as tmp:
        path = checkpoint_save(Path(tmp) / "m.sltc", tiny_model(seed=4), gloss, text,
                               "sign2gloss+text")
        return path.read_bytes()


class TestCheckpointFuzz:
    """Truncated or byte-flipped SLTC input fails only with CheckpointError."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_truncation_is_checkpoint_error(self, tmp_path_factory, data):
        raw = tiny_checkpoint_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        path = tmp_path_factory.mktemp("sltc") / "cut.sltc"
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            restore_model(checkpoint_load(path))

    @given(data=st.data(), mask=st.integers(min_value=1, max_value=255))
    @settings(max_examples=300, deadline=None)
    def test_byte_flip_loads_or_is_checkpoint_error(self, tmp_path_factory, data, mask):
        raw = bytearray(tiny_checkpoint_bytes())
        # the footer is a small share of the file, so draw from it on purpose too
        at = data.draw(st.one_of(st.integers(min_value=0, max_value=len(raw) - 1),
                                 st.integers(min_value=raw.rindex(b'{"extra":') - 4,
                                             max_value=len(raw) - 1)))
        raw[at] ^= mask
        path = tmp_path_factory.mktemp("sltc") / "flip.sltc"
        path.write_bytes(bytes(raw))
        try:
            model, _, _ = restore_model(checkpoint_load(path))
        except CheckpointError:
            return
        assert all(np.all(np.isfinite(p.data)) for p in model.named_parameters().values())


def quick_cfg(corpus, out_dir, **overrides):
    base = dict(
        corpus=str(corpus),
        out_dir=str(out_dir),
        protocol="sign2gloss+text",
        lambda_r=5.0,
        lambda_t=1.0,
        d=16,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=32,
        dropout=0.0,
        batch_size=8,
        max_iterations=6,
        eval_every=3,
        seed=1,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    data.generate_synthetic(root, seed=13, n_train=24, n_dev=6, n_test=6)
    return root


class TestTrainLoop:
    def test_loop_runs_and_logs(self, small_corpus, tmp_path):
        cfg = quick_cfg(small_corpus, tmp_path / "run")
        result = train(cfg)
        assert result.iterations == 6
        assert result.stop_reason == "max_iterations"
        assert len(result.log) == 2
        for entry in result.log:
            assert {"iteration", "loss", "lr", "dev_wer", "dev_bleu1",
                    "dev_bleu2", "dev_bleu3", "dev_bleu4"} <= set(entry)
            assert entry["loss"] > 0
        assert (tmp_path / "run" / "train_log.jsonl").exists()
        assert result.best_path is not None and result.best_path.exists()

    def test_fixed_seed_reproduces_trajectory(self, small_corpus, tmp_path):
        cfg_a = quick_cfg(small_corpus, tmp_path / "a")
        cfg_b = quick_cfg(small_corpus, tmp_path / "b")
        ra = train(cfg_a)
        rb = train(cfg_b)
        assert ra.log == rb.log
        pa = ra.model.named_parameters()
        pb = rb.model.named_parameters()
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data), name

    def test_translation_only_never_touches_gloss_head(self, small_corpus, tmp_path):
        cfg = quick_cfg(
            small_corpus, tmp_path / "run", protocol="sign2text",
            lambda_r=0.0, lambda_t=1.0,
        )
        result = train(cfg)
        fresh = JointModel(
            d_in=16, d=cfg.d, n_heads=cfg.n_heads, n_enc_layers=1,
            n_dec_layers=1, n_glosses=len(result.gloss_vocab),
            n_words=len(result.text_vocab), d_ff=cfg.d_ff,
            dropout=cfg.dropout, seed=cfg.seed,
        )
        trained = result.model.named_parameters()
        init = fresh.named_parameters()
        assert np.array_equal(
            trained["encoder.gloss_proj.weight"].data,
            init["encoder.gloss_proj.weight"].data,
        )
        assert not np.array_equal(
            trained["decoder.word_proj.weight"].data,
            init["decoder.word_proj.weight"].data,
        )

    def test_gloss_input_protocol_never_touches_spatial(self, small_corpus, tmp_path):
        cfg = quick_cfg(
            small_corpus, tmp_path / "run", protocol="gloss2text",
            lambda_r=0.0, lambda_t=1.0,
        )
        result = train(cfg)
        fresh = JointModel(
            d_in=16, d=cfg.d, n_heads=cfg.n_heads, n_enc_layers=1,
            n_dec_layers=1, n_glosses=len(result.gloss_vocab),
            n_words=len(result.text_vocab), d_ff=cfg.d_ff,
            dropout=cfg.dropout, seed=cfg.seed,
        )
        assert np.array_equal(
            result.model.named_parameters()["spatial.weight"].data,
            fresh.named_parameters()["spatial.weight"].data,
        )

    def test_floor_stop_via_loop(self, small_corpus, tmp_path):
        # BLEU-4 sits at 0.0 for an untrained model, so the second eval is
        # already non-improving; patience 1 forces a reduction below floor.
        cfg = quick_cfg(
            small_corpus, tmp_path / "run", protocol="sign2text",
            lambda_r=0.0, lambda_t=1.0, eval_every=1, patience=1,
            lr_floor=9e-4, max_iterations=30,
        )
        result = train(cfg)
        assert result.stop_reason == "lr_floor"
        assert result.iterations < 30

    def test_checkpoint_reproduces_dev_metrics(self, small_corpus, tmp_path):
        cfg = quick_cfg(small_corpus, tmp_path / "run")
        result = train(cfg)
        dev, _, _ = data.load_corpus(small_corpus, "dev")
        before = evaluate_corpus(
            result.model, dev, result.gloss_vocab, result.text_vocab,
            cfg.protocol,
        )
        path = checkpoint_save(
            tmp_path / "final.sltc", result.model, result.gloss_vocab,
            result.text_vocab, cfg.protocol,
        )
        model2, gloss2, text2 = restore_model(checkpoint_load(path))
        after = evaluate_corpus(model2, dev, gloss2, text2, cfg.protocol)
        assert before == after

    def test_best_checkpoint_holds_the_model_alone(self, small_corpus, tmp_path):
        # one evaluation, so best.sltc holds the final in-memory weights
        cfg = quick_cfg(small_corpus, tmp_path / "run", max_iterations=3, eval_every=3)
        result = train(cfg)
        ckpt = checkpoint_load(result.best_path)
        assert not any(name.startswith("adam.") for name in ckpt.tensors)
        assert set(ckpt.tensors) == (set(result.model.named_parameters())
                                     | set(result.model.named_buffers()))
        assert ckpt.footer["optimizer"] is None and ckpt.footer["scheduler"] is None
        dev, _, _ = data.load_corpus(small_corpus, "dev")
        before = evaluate_corpus(result.model, dev, result.gloss_vocab, result.text_vocab,
                                 cfg.protocol)
        model2, gloss2, text2 = restore_model(ckpt)
        assert evaluate_corpus(model2, dev, gloss2, text2, cfg.protocol) == before

    @staticmethod
    def script_dev_scores(monkeypatch, wers, bleu4s):
        """Make each dev evaluation of `train` report the next WER and BLEU-4."""
        scores = iter(zip(wers, bleu4s))

        def scripted(model, samples, *_, **__):
            wer, bleu4 = next(scores)
            return EvalReport(
                n_samples=len(samples),
                wer=None if wer is None else WerReport(wer, wer, 0.0, 0.0, 1, 0, 0, 1),
                bleu=None if bleu4 is None else BleuReport(bleu4, bleu4, bleu4, bleu4,
                                                           (0.5,) * 4, 1.0),
                beam_width=0, alpha=0.0)

        monkeypatch.setattr(training, "evaluate_corpus", scripted)

    def test_joint_run_keeps_its_best_bleu(self, small_corpus, tmp_path, monkeypatch):
        # dev WER sits at 0 while BLEU-4 rises: the joint run tracks BLEU-4,
        # so it keeps the last model and never cuts the rate
        self.script_dev_scores(monkeypatch, [0.0] * 3, [10.0, 20.0, 30.0])
        cfg = quick_cfg(small_corpus, tmp_path / "run", max_iterations=9, eval_every=3,
                        patience=1)
        result = train(cfg)
        assert [e["action"] for e in result.log] == ["none"] * 3
        assert result.best_score == 30.0
        ckpt = checkpoint_load(result.best_path)
        assert ckpt.footer["extra"]["iteration"] == 9
        assert ckpt.footer["extra"]["tracked_metric"] == "bleu4"
        assert ckpt.footer["extra"]["dev_score"] == 30.0
        kept, final = model_state(restore_model(ckpt)[0]), model_state(result.model)
        assert kept.keys() == final.keys()
        assert all(np.array_equal(kept[name], final[name]) for name in final)

    def test_recognition_run_keeps_its_best_wer(self, small_corpus, tmp_path, monkeypatch):
        # a rising WER is a worse one: the first model stays, and patience 1
        # cuts the rate at the second evaluation
        self.script_dev_scores(monkeypatch, [10.0, 20.0, 30.0], [None] * 3)
        cfg = quick_cfg(small_corpus, tmp_path / "run", protocol="sign2gloss", lambda_t=0.0,
                        max_iterations=9, eval_every=3, patience=1)
        result = train(cfg)
        assert [e["action"] for e in result.log] == ["none", "reduce_lr", "reduce_lr"]
        assert result.best_score == 10.0
        ckpt = checkpoint_load(result.best_path)
        assert ckpt.footer["extra"]["iteration"] == 3
        assert ckpt.footer["extra"]["tracked_metric"] == "wer"


def model_state(model):
    arrays = {name: p.data.copy() for name, p in model.named_parameters().items()}
    arrays.update({name: buf.copy() for name, buf in model.named_buffers().items()})
    return arrays


class TestNonFiniteLossGuard:
    """A step whose loss or gradient is not finite changes nothing and is counted."""

    @pytest.fixture
    def nan_splits(self, small_corpus):
        train_samples, gloss_vocab, text_vocab = data.load_corpus(small_corpus, "train")
        dev_samples, _, _ = data.load_corpus(small_corpus, "dev")
        nan_samples = [
            data.Sample(x.id, np.full_like(x.features, np.nan), x.glosses, x.sentence)
            for x in train_samples
        ]
        return dict(train_samples=nan_samples, dev_samples=dev_samples,
                    gloss_vocab=gloss_vocab, text_vocab=text_vocab)

    def test_nan_batches_leave_parameters_bitwise_unchanged(self, small_corpus, nan_splits,
                                                            tmp_path, monkeypatch):
        updates = []
        monkeypatch.setattr(training, "adam_step", lambda *a: updates.append(a))
        cfg = quick_cfg(small_corpus, tmp_path / "run", max_iterations=MAX_NONFINITE_STEPS - 1,
                        eval_every=1)
        result = train(cfg, **nan_splits)
        assert updates == []
        assert result.iterations == MAX_NONFINITE_STEPS - 1
        fresh = JointModel(
            d_in=16, d=cfg.d, n_heads=cfg.n_heads, n_enc_layers=1, n_dec_layers=1,
            n_glosses=len(result.gloss_vocab), n_words=len(result.text_vocab),
            d_ff=cfg.d_ff, dropout=cfg.dropout, seed=cfg.seed,
        )
        before, after = model_state(fresh), model_state(result.model)
        assert before.keys() == after.keys()
        for name in before:
            assert np.array_equal(before[name], after[name]), name
        logged = [json.loads(line) for line in
                  (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
        assert logged == result.log
        assert [e["nonfinite_steps"] for e in logged] == [1] * (MAX_NONFINITE_STEPS - 1)
        assert all(e["loss"] is None for e in logged)

    def test_nan_features_make_the_loss_itself_non_finite(self, small_corpus, nan_splits,
                                                          tmp_path, monkeypatch):
        real = training.batch_losses
        losses, updates = [], []

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            losses.append(float(out[0].data))
            return out

        monkeypatch.setattr(training, "batch_losses", recording)
        monkeypatch.setattr(training, "adam_step", lambda *a: updates.append(a))
        cfg = quick_cfg(small_corpus, tmp_path / "run", max_iterations=2, eval_every=2)
        result = train(cfg, **nan_splits)
        assert len(losses) == 2 and not np.isfinite(losses).any()
        assert updates == []
        assert result.log[-1]["nonfinite_steps"] == 2

    def test_consecutive_nan_steps_raise(self, small_corpus, nan_splits, tmp_path):
        cfg = quick_cfg(small_corpus, tmp_path / "run", max_iterations=MAX_NONFINITE_STEPS + 3,
                        eval_every=1)
        with pytest.raises(NonFiniteLossError, match=f"{MAX_NONFINITE_STEPS} consecutive"):
            train(cfg, **nan_splits)
        logged = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        assert len(logged) == MAX_NONFINITE_STEPS - 1

    def test_finite_step_resets_the_run(self, small_corpus, tmp_path, monkeypatch):
        real = training.batch_losses
        calls = []

        def finite_every_nth(*args, **kwargs):
            total, loss_r, loss_t, skipped = real(*args, **kwargs)
            calls.append(None)
            if len(calls) % MAX_NONFINITE_STEPS:
                total = total * np.nan
            return total, loss_r, loss_t, skipped

        monkeypatch.setattr(training, "batch_losses", finite_every_nth)
        iterations = 3 * MAX_NONFINITE_STEPS
        cfg = quick_cfg(small_corpus, tmp_path / "run", max_iterations=iterations,
                        eval_every=iterations)
        result = train(cfg)
        assert result.iterations == iterations
        (entry,) = result.log
        assert entry["nonfinite_steps"] == 3 * (MAX_NONFINITE_STEPS - 1)
        assert np.isfinite(entry["loss"])


def test_batch_without_feasible_ctc_target_is_a_skipped_step(tmp_path, monkeypatch):
    # "A A" needs 3 frames (a blank between the repeats), so neither 2-frame
    # sample fits CTC and a sign2gloss batch has no loss: each step changes
    # nothing, buffers included, and the evaluations still run
    gloss_vocab = data.Vocabulary({"A", "B"}, data.GLOSS_SPECIALS)
    text_vocab = data.Vocabulary({"x"}, data.TEXT_SPECIALS)
    rng = np.random.default_rng(5)
    samples = [data.Sample(f"s{i}", rng.normal(size=(2, 4)).astype(np.float32), (g, g), ("x",))
               for i, g in enumerate("AB")]
    updates = []
    monkeypatch.setattr(training, "adam_step", lambda *a: updates.append(a))
    cfg = quick_cfg(tmp_path / "unused", tmp_path / "run", protocol="sign2gloss",
                    lambda_r=1.0, lambda_t=0.0, batch_size=1, max_iterations=4, eval_every=2)
    result = train(cfg, train_samples=samples, dev_samples=samples,
                   gloss_vocab=gloss_vocab, text_vocab=text_vocab)
    assert updates == []
    assert [e["iteration"] for e in result.log] == [2, 4]
    assert all(e["loss"] is None and e["nonfinite_steps"] == 0 for e in result.log)
    assert result.best_path is not None and result.best_path.exists()
    assert np.array_equal(result.model.spatial.bn_running_mean, np.zeros(cfg.d))
    assert np.array_equal(result.model.spatial.bn_running_var, np.ones(cfg.d))
