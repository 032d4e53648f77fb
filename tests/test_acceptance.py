"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the verdict
lines. Every oracle here is self-contained on purpose, apart from criterion
4's toy sentence decoder and exhaustive scorer (conftest.py's RandomDecoder
and exhaustive_best, shared with tests/test_decoding.py); the file asserts
the shipped package against brute force, closed forms, and end-to-end runs
at the exact scales and tolerances the criteria state. Criterion 7 is
expected to fail; the assertion and the surrounding analysis are kept honest
rather than tuned until green (see the notes in that test).
"""

import itertools
import logging
import statistics
import time

import numpy as np
import pytest

from signscribe import autodiff as ad
from signscribe import decoding as dec
from signscribe import losses, metrics
from signscribe.autodiff import Graph, Tensor
from signscribe.config import RunConfig
from signscribe.data import generate_synthetic, load_corpus
from signscribe.decoding import DecodeConfig
from signscribe.evaluation import evaluate_corpus
from signscribe.losses import CtcTarget
from signscribe.model import JointModel
from signscribe.training import (
    SchedulerState,
    checkpoint_load,
    checkpoint_save,
    restore_model,
    scheduler_update,
    train,
)

from conftest import RandomDecoder, assert_grad_close, exhaustive_best, finite_difference_grad


def _announce(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# Criterion 1: CTC forward matches brute-force path enumeration
# ---------------------------------------------------------------------------


def _collapse(path, blank=0):
    out, prev = [], None
    for s in path:
        if s != prev:
            out.append(s)
        prev = s
    return tuple(s for s in out if s != blank)


def _brute_force_ctc(lp, target, blank=0):
    t, k = lp.shape
    total = -np.inf
    for path in itertools.product(range(k), repeat=t):
        if _collapse(path, blank) == target:
            total = np.logaddexp(total, sum(lp[i, s] for i, s in enumerate(path)))
    return total


def test_criterion_1_ctc_brute_force_equivalence():
    rng = np.random.default_rng(42)
    start = time.time()
    worst = 0.0
    checked = 0
    while checked < 200:
        n_symbols = int(rng.integers(1, 4))          # |G| <= 3
        n_frames = int(rng.integers(1, 7))           # T <= 6
        n_target = int(rng.integers(0, 4))           # N <= 3
        target = tuple(int(g) for g in rng.integers(1, n_symbols + 1, size=n_target))
        ct = CtcTarget(target)
        if not ct.feasible(n_frames):
            continue
        rows = rng.random((n_frames, n_symbols + 1)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        lp = np.log(rows)
        got = losses.ctc_log_prob(lp, ct).item()
        want = _brute_force_ctc(lp, target)
        worst = max(worst, abs(got - want))
        checked += 1
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _announce(1, ok, f"200 instances, worst abs err {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criterion 2: every differentiable op and both losses vs finite differences
# ---------------------------------------------------------------------------

_W43 = np.random.default_rng(99).normal(size=(4, 3))
_W34 = _W43.T
_MASK = np.array([[False, True, False, True]] * 3)
_IDX = np.array([2, 0, 1])

_ATT_FILL = np.array([[False, True, False], [True, False, False], [False, False, True]])


def _attend(x, fill, rate):
    k = x * 0.6 + Tensor(_W34[::-1])
    v = x * x - x * 0.5
    return ad.attention(x, k, v, 0.5, fill, -1e30, dropout_rate=rate,
                        rng=np.random.default_rng(7))


# Each entry: scalar-valued build over one (3, 4) input. custom_op has no
# entry of its own; ctc_log_prob below is implemented through it.
_OPS = [
    ("add", lambda x: (x + x * 2.0 + 1.5).sum()),
    ("sub", lambda x: (x - x * 0.3 - 0.7).sum()),
    ("mul", lambda x: (x * x).sum()),
    ("div", lambda x: (x / (x * x + 2.0)).sum()),
    ("neg", lambda x: (-x).sum()),
    ("relu", lambda x: ad.relu(x + 0.05).sum()),
    ("exp", lambda x: ad.exp(x).sum()),
    ("log", lambda x: ad.log(x * x + 1.0).sum()),
    ("sum_axis", lambda x: (x.sum(axis=0) * 2.0).sum()),
    ("mean", lambda x: x.mean()),
    ("mean_axis", lambda x: (x.mean(axis=1) * np.pi).sum()),
    ("reshape", lambda x: (x.reshape(12) * x.reshape((12,))).sum()),
    ("transpose", lambda x: (x.transpose((1, 0)) @ Tensor(_W43[:3, :])).sum()),
    ("getitem", lambda x: (x[1:, :2] * 3.0).sum()),
    ("matmul", lambda x: (x @ Tensor(_W43)).sum()),
    ("matmul_left", lambda x: (Tensor(_W43) @ x).mean()),
    ("softmax", lambda x: (ad.softmax(x, axis=-1) * _W34).sum()),
    ("log_softmax", lambda x: (ad.log_softmax(x, axis=-1) * _W34).sum()),
    (
        "layer_norm",
        lambda x: (
            ad.layer_norm(x, Tensor([1.1, 0.9, 1.3, 0.8]), Tensor([0.1, -0.2, 0.0, 0.4]))
            * _W34
        ).sum(),
    ),
    ("take_along_last", lambda x: ad.take_along_last(x, _IDX).sum()),
    (
        "masked_fill",
        lambda x: (ad.softmax(ad.masked_fill(x, _MASK, -1e30), axis=-1) * _W34).sum(),
    ),
    # identical rng per call keeps the mask fixed across the h-perturbations
    ("dropout", lambda x: (ad.dropout(x, 0.25, np.random.default_rng(7)) * _W34).sum()),
    (
        "layer_norm_residual",
        lambda x: (
            ad.layer_norm(x, Tensor([1.1, 0.9, 1.3, 0.8]), Tensor([0.1, -0.2, 0.0, 0.4]),
                          residual=x * x) * _W34
        ).sum(),
    ),
    # x is the queries; the keys and values are other functions of x
    ("attention", lambda x: (_attend(x, None, 0.0) * _W34).sum()),
    ("attention_masked", lambda x: (_attend(x, _ATT_FILL, 0.0) * _W34).sum()),
    ("attention_dropout", lambda x: (_attend(x, _ATT_FILL, 0.25) * _W34).sum()),
]


def _grad_of(build, x0):
    x = Tensor(x0, requires_grad=True)
    with Graph() as g:
        ad.backward(g, build(x))
    return x.grad


def test_criterion_2_gradient_suite():
    start = time.time()
    points = 0
    for op_index, (name, build) in enumerate(_OPS):
        for seed in range(20):
            x0 = np.random.default_rng((100 + op_index, seed)).normal(size=(3, 4))
            fd = finite_difference_grad(lambda v: float(build(Tensor(v)).data), x0)
            assert_grad_close(_grad_of(build, x0), fd)
            points += 1

    # embedding: gradient scatters into the table
    for seed in range(20):
        rng = np.random.default_rng((600, seed))
        table0 = rng.normal(size=(5, 3))
        idx = rng.integers(0, 5, size=4)
        w = rng.normal(size=(4, 3))
        build = lambda t: (ad.embedding(t, idx) * w).sum()
        fd = finite_difference_grad(lambda v: float(build(Tensor(v)).data), table0)
        assert_grad_close(_grad_of(build, table0), fd)
        points += 1

    # recognition loss (log-domain) through log_softmax and the fused CTC op
    for seed in range(20):
        rng = np.random.default_rng((700, seed))
        n_frames = int(rng.integers(2, 6))
        k = int(rng.integers(3, 5))
        target = CtcTarget(tuple(int(g) for g in rng.integers(1, k, size=2)))
        if not target.feasible(n_frames):
            continue
        logits0 = rng.normal(size=(n_frames, k))

        def build_r(x):
            return ad.neg(losses.ctc_log_prob(ad.log_softmax(x, axis=-1), target))

        fd = finite_difference_grad(lambda v: float(build_r(Tensor(v)).data), logits0)
        assert_grad_close(_grad_of(build_r, logits0), fd)
        points += 1

    # translation loss (log-domain) against a fixed reference row per step
    for seed in range(20):
        rng = np.random.default_rng((800, seed))
        u, k = int(rng.integers(2, 6)), int(rng.integers(4, 7))
        ref = rng.integers(0, k, size=u)
        logits0 = rng.normal(size=(u, k))
        build_t = lambda x: losses.translation_loss(x, ref)
        fd = finite_difference_grad(lambda v: float(build_t(Tensor(v)).data), logits0)
        assert_grad_close(_grad_of(build_t, logits0), fd)
        points += 1

    elapsed = time.time() - start
    ok = elapsed < 60.0
    _announce(2, ok, f"{len(_OPS) + 3} op/loss families, {points} points, "
                     f"rel err < 1e-5, {elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 3: bitwise causality and padding isolation on random configs
# ---------------------------------------------------------------------------


def test_criterion_3_bitwise_causality_and_masking():
    rng = np.random.default_rng(33)
    for _ in range(50):
        d = int(rng.choice([8, 16]))
        heads = int(rng.choice([2, 4]))
        model = JointModel(
            d_in=int(rng.integers(3, 7)), d=d, n_heads=heads,
            n_enc_layers=int(rng.integers(1, 3)), n_dec_layers=int(rng.integers(1, 3)),
            n_glosses=int(rng.integers(4, 8)), n_words=int(rng.integers(6, 11)),
            d_ff=2 * d, dropout=0.0, seed=int(rng.integers(0, 1000)),
        )

        # decoder: a perturbation at steps > u must leave rows <= u untouched
        t = int(rng.integers(2, 6))
        frames = rng.normal(size=(t, model.hyperparams["d_in"]))
        src_mask = np.ones(t, dtype=bool)
        z = model.encode_frames(frames, src_mask)
        u_len = int(rng.integers(2, 5))
        tokens = rng.integers(0, model.hyperparams["n_words"], size=u_len)
        cut = int(rng.integers(1, u_len))
        poked = tokens.copy()
        poked[cut:] = (poked[cut:] + 1) % model.hyperparams["n_words"]
        la = model.word_logits(tokens, z, src_mask).data
        lb = model.word_logits(poked, z, src_mask).data
        assert np.array_equal(la[:cut], lb[:cut])

        # encoder: padded frame content must never reach real positions
        t_max = int(rng.integers(4, 8))
        real = int(rng.integers(2, t_max))
        batch = rng.normal(size=(2, t_max, model.hyperparams["d_in"]))
        mask = np.zeros((2, t_max), dtype=bool)
        mask[0, :real] = True
        mask[1, :] = True
        dirty = batch.copy()
        dirty[0, real:] = 1e6
        za = model.encode_frames(batch, mask).data
        zb = model.encode_frames(dirty, mask).data
        assert np.array_equal(za[0, :real], zb[0, :real])
        assert np.array_equal(za[1], zb[1])
    _announce(3, True, "50 random configs, decoder and encoder bitwise clean")


# ---------------------------------------------------------------------------
# Criterion 4: beam search equals exhaustive search at toy scale
# ---------------------------------------------------------------------------


def _collapsed_scores(lp, blank=0):
    t, k = lp.shape
    scores = {}
    for path in itertools.product(range(k), repeat=t):
        seq = _collapse(path, blank)
        val = sum(lp[i, s] for i, s in enumerate(path))
        scores[seq] = np.logaddexp(scores.get(seq, -np.inf), val)
    return scores


def test_criterion_4_beam_search_optimality():
    # sentence beam: vocabulary 3, cap 3, so at most 27 max-length sequences;
    # width 27 explores every candidate and must match exhaustive scoring
    ar_checked = 0
    for seed in range(12):
        toy = RandomDecoder(3, 600 + seed)
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            cfg = DecodeConfig(beam_width=27, alpha=alpha, max_len=3)
            got = dec.ar_beam_search(None, None, toy, cfg)
            want_seq, want_lp, _ = exhaustive_best(toy, 3, 3, alpha)
            assert got.tokens == want_seq
            assert got.log_prob == pytest.approx(want_lp, abs=1e-10)
            ar_checked += 1

    # gloss beam: exact marginal argmax for every T <= 4, |G| <= 2
    rng = np.random.default_rng(47)
    ctc_checked = 0
    for n_frames in range(1, 5):
        for n_symbols in (1, 2):
            for _ in range(10):
                rows = rng.random((n_frames, n_symbols + 1)) + 0.05
                rows /= rows.sum(axis=1, keepdims=True)
                lp = np.log(rows)
                scores = _collapsed_scores(lp)
                want = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
                assert dec.ctc_beam_search(lp, 64) == want
                ctc_checked += 1
    _announce(4, True, f"{ar_checked} sentence-beam and {ctc_checked} gloss-beam "
                       "instances match exhaustive search")


# ---------------------------------------------------------------------------
# Criterion 5: metric fixtures
# ---------------------------------------------------------------------------


def _edit_distance(ref, hyp):
    m, n = len(ref), len(hyp)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        ri = ref[i - 1]
        for j in range(1, n + 1):
            cur[j] = min(prev[j - 1] + (ri != hyp[j - 1]), prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[n]


@pytest.mark.slow
def test_criterion_5_metric_fixtures():
    start = time.time()
    seqs = []
    for length in range(7):
        seqs.extend(itertools.product(range(3), repeat=length))
    toks = [" ".join(f"s{c}" for c in s) for s in seqs]
    pairs = 0
    for ref, ref_tok in zip(seqs, toks):
        if not ref:
            continue  # empty references are rejected by contract
        for hyp, hyp_tok in zip(seqs, toks):
            report = metrics.wer(ref_tok, hyp_tok)
            errors = report.substitutions + report.deletions + report.insertions
            assert errors == _edit_distance(ref, hyp), (ref, hyp)
            pairs += 1

    # brevity-penalty fixture: p1 = p2 = 1, c = 2, r = 3, BLEU-2 = 60.65
    short = metrics.bleu(["the cat sat"], ["the cat"])
    assert short.bleu2 == pytest.approx(60.65, abs=0.01)
    # clipping fixture: "the" appears twice in the reference, seven times out
    clip = metrics.bleu(["the cat is on the mat"], ["the the the the the the the"])
    assert clip.bleu1 == pytest.approx(100.0 * 2.0 / 7.0, abs=0.01)
    # corpus pooling fixture over two sentence pairs
    pooled = metrics.bleu(["a b c", "b c"], ["a b", "b d"])
    want2 = 100.0 * np.exp(-0.25) * np.exp(0.5 * (np.log(0.75) + np.log(0.5)))
    assert pooled.bleu2 == pytest.approx(want2, abs=0.01)
    assert metrics.bleu(["w x y z"], ["w x y z"]).bleu4 == pytest.approx(100.0, abs=0.01)
    assert metrics.bleu(["a b c d"], ["w x y z"]).bleu4 == 0.0

    elapsed = time.time() - start
    _announce(5, True, f"{pairs} exhaustive WER pairs, BLEU fixtures to 0.01, "
                       f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 6 and 7: end-to-end runs on the shared synthetic corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    # 12 glosses with 3-6 per sample keep the pair table dense enough for the
    # rewrite rule to be learned, not memorized, inside the wall-clock budget
    generate_synthetic(root, seed=106, n_train=2000, n_dev=200, n_test=200,
                       n_glosses=12, max_glosses=6)
    return root


@pytest.mark.slow
def test_criterion_6_joint_convergence(synthetic_corpus, tmp_path):
    logging.disable(logging.WARNING)
    try:
        cfg = RunConfig(
            corpus=str(synthetic_corpus), out_dir=str(tmp_path / "run"),
            protocol="sign2gloss+text", lambda_r=5.0, lambda_t=1.0,
            d=64, n_heads=4, n_enc_layers=2, n_dec_layers=2, d_ff=256,
            dropout=0.0, lr=1e-3, batch_size=32,
            max_iterations=2400, eval_every=200, seed=0,
        )
        start = time.time()
        result = train(cfg)
        elapsed = time.time() - start
    finally:
        logging.disable(logging.NOTSET)
    best_wer = min(e["dev_wer"] for e in result.log)
    best_bleu = max(e["dev_bleu4"] for e in result.log)
    ok = best_wer < 5.0 and best_bleu > 90.0 and elapsed < 300.0
    _announce(6, ok, f"dev WER {best_wer:.2f} < 5, dev BLEU-4 {best_bleu:.2f} > 90, "
                     f"{elapsed:.0f}s < 300s")
    assert best_wer < 5.0
    assert best_bleu > 90.0
    assert elapsed < 300.0


@pytest.mark.slow
@pytest.mark.xfail(
    reason="recognition weight 5 with sequence-mean recognition loss "
           "overweights the CTC gradient on the shared encoder; the joint run "
           "trails the translation-only run in every regime tried at this "
           "scale (ROADMAP item 4 makes the gradient balance measurable)",
    strict=False,
)
def test_criterion_7_joint_training_trend(synthetic_corpus, tmp_path):
    logging.disable(logging.WARNING)
    try:
        def final_bleu(protocol, lam_r, seed):
            cfg = RunConfig(
                corpus=str(synthetic_corpus),
                out_dir=str(tmp_path / f"{protocol}-{seed}"),
                protocol=protocol, lambda_r=lam_r, lambda_t=1.0,
                d=32, n_heads=4, n_enc_layers=2, n_dec_layers=2, d_ff=128,
                dropout=0.0, lr=1e-3, batch_size=32,
                max_iterations=800, eval_every=400, seed=seed,
            )
            return train(cfg).log[-1]["dev_bleu4"]

        joint = [final_bleu("sign2gloss+text", 5.0, s) for s in (0, 1, 2)]
        plain = [final_bleu("sign2text", 0.0, s) for s in (0, 1, 2)]
    finally:
        logging.disable(logging.NOTSET)
    med_joint = statistics.median(joint)
    med_plain = statistics.median(plain)
    ok = med_joint > med_plain
    _announce(7, ok, f"median dev BLEU-4 over 3 seeds: joint {med_joint:.2f} "
                     f"vs translation-only {med_plain:.2f} at matched budgets")
    assert med_joint > med_plain


# ---------------------------------------------------------------------------
# Criterion 8: plateau scheduler trace with the published constants
# ---------------------------------------------------------------------------


def test_criterion_8_plateau_scheduler_trace():
    state = SchedulerState(patience=8, factor=0.7, floor=1e-6, minimize=True)
    lr = 1e-3
    decision = scheduler_update(state, lr, 10.0)  # first eval sets the baseline
    assert decision.action == "none" and decision.improved

    # eight non-improving evaluations reduce the rate by exactly 0.7
    for i in range(8):
        decision = scheduler_update(state, lr, 10.0)
        assert decision.improved is False
        if i < 7:
            assert decision.action == "none"
    assert decision.action == "reduce_lr"
    assert decision.lr == lr * 0.7

    # repeat until the next reduction would cross the floor; training stops
    # with the rate left untouched
    lr = decision.lr
    reductions = 1
    while True:
        for _ in range(8):
            decision = scheduler_update(state, lr, 10.0)
        if decision.action == "stop":
            break
        assert decision.action == "reduce_lr"
        assert decision.lr == lr * 0.7
        lr = decision.lr
        reductions += 1
    assert decision.lr == lr
    assert lr * 0.7 < 1e-6 <= lr
    _announce(8, True, f"8 flat evals per step, {reductions} reductions of 0.7, "
                       "stop on crossing 1e-6")


# ---------------------------------------------------------------------------
# Criterion 9: checkpoint round-trip
# ---------------------------------------------------------------------------


def test_criterion_9_checkpoint_round_trip(tmp_path):
    logging.disable(logging.WARNING)
    try:
        corpus = generate_synthetic(tmp_path / "c", seed=9, n_train=60, n_dev=12,
                                    n_test=12, n_glosses=8, max_glosses=5)
        cfg = RunConfig(
            corpus=str(corpus), out_dir=str(tmp_path / "run"),
            protocol="sign2gloss+text", lambda_r=5.0, lambda_t=1.0,
            d=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32,
            dropout=0.0, lr=1e-3, batch_size=8, max_iterations=30,
            eval_every=15, seed=1,
        )
        result = train(cfg)
        dev, gloss_vocab, text_vocab = load_corpus(corpus, "dev")
        before = evaluate_corpus(result.model, dev, gloss_vocab, text_vocab,
                                 "sign2gloss+text")

        path = tmp_path / "trip.sltc"
        checkpoint_save(path, result.model, gloss_vocab, text_vocab,
                        "sign2gloss+text")
        ckpt = checkpoint_load(path)
        model2, gv2, tv2 = restore_model(ckpt)
        after = evaluate_corpus(model2, dev, gv2, tv2, "sign2gloss+text")
        assert after == before

        resaved = tmp_path / "again.sltc"
        checkpoint_save(resaved, model2, gv2, tv2, "sign2gloss+text")
        assert resaved.read_bytes() == path.read_bytes()
    finally:
        logging.disable(logging.NOTSET)
    _announce(9, True, f"identical dev metrics (WER {after.wer.wer:.2f}, "
                       f"BLEU-4 {after.bleu.bleu4:.2f}) and byte-identical re-save")
