"""Loss tests against brute-force alignment enumeration and closed forms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import autodiff as ad
from signscribe import losses
from signscribe.autodiff import Graph, Tensor
from signscribe.errors import ConfigError, ContractError, DimensionError, VocabularyError
from signscribe.losses import CtcTarget, LossWeights
from signscribe.transformer import Rows

from conftest import assert_grad_close, finite_difference_grad


def collapse(path, blank=0):
    """Naive collapse: squash runs, then drop blanks. Reference only."""
    out = []
    prev = None
    for sym in path:
        if sym != prev:
            out.append(sym)
        prev = sym
    return tuple(sym for sym in out if sym != blank)


def brute_force_log_prob(log_probs, glosses, blank=0):
    """Sum path probabilities over every frame labelling that collapses right."""
    t, k = log_probs.shape
    target = tuple(glosses)
    total = -np.inf
    for path in itertools.product(range(k), repeat=t):
        if collapse(path, blank) == target:
            total = np.logaddexp(total, sum(log_probs[i, s] for i, s in enumerate(path)))
    return total


def random_log_rows(t, k, rng):
    rows = rng.random((t, k)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return np.log(rows)


class TestCtcTarget:
    def test_extension_interleaves_blanks(self):
        target = CtcTarget((3, 1, 1))
        assert target.extended == (0, 3, 0, 1, 0, 1, 0)
        assert target.n == 3

    def test_blank_in_target_rejected(self):
        with pytest.raises(ContractError):
            CtcTarget((1, 0, 2))

    def test_min_frames_counts_adjacent_repeats(self):
        assert CtcTarget((1, 2, 3)).min_frames == 3
        assert CtcTarget((1, 1)).min_frames == 3
        assert CtcTarget((2, 2, 2)).min_frames == 5
        assert CtcTarget(()).min_frames == 0

    def test_feasible(self):
        assert CtcTarget((1, 1)).feasible(3)
        assert not CtcTarget((1, 1)).feasible(2)


class TestCtcLogProb:
    def test_single_frame_single_gloss(self):
        lp = np.log(np.array([[0.1, 0.9]]))
        out = losses.ctc_log_prob(lp, CtcTarget((1,)))
        assert out.item() == pytest.approx(np.log(0.9), abs=1e-12)

    def test_two_frames_uniform(self):
        # paths (a,a), (a,-), (-,a): 3 * 0.25 = 0.75
        lp = np.log(np.full((2, 2), 0.5))
        out = losses.ctc_log_prob(lp, CtcTarget((1,)))
        assert out.item() == pytest.approx(np.log(0.75), abs=1e-12)

    def test_repeat_needs_blank_between(self):
        lp = random_log_rows(3, 3, np.random.default_rng(0))
        out = losses.ctc_log_prob(lp, CtcTarget((1, 1)))
        assert out.item() == pytest.approx(brute_force_log_prob(lp, (1, 1)), abs=1e-12)
        # the only path for T=3 is (a, blank, a)
        assert out.item() == pytest.approx(lp[0, 1] + lp[1, 0] + lp[2, 1], abs=1e-12)

    def test_empty_target_is_all_blanks(self):
        lp = random_log_rows(4, 3, np.random.default_rng(1))
        out = losses.ctc_log_prob(lp, CtcTarget(()))
        assert out.item() == pytest.approx(lp[:, 0].sum(), abs=1e-12)

    def test_infeasible_target_gives_minus_inf(self):
        lp = random_log_rows(1, 3, np.random.default_rng(2))
        out = losses.ctc_log_prob(lp, CtcTarget((1, 1)))
        assert out.item() == -np.inf

    def test_gloss_id_out_of_range(self):
        lp = random_log_rows(2, 3, np.random.default_rng(3))
        with pytest.raises(VocabularyError):
            losses.ctc_log_prob(lp, CtcTarget((5,)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(0, 4))
        glosses = tuple(int(g) for g in rng.integers(1, k, size=n))
        lp = random_log_rows(t, k, rng)
        got = losses.ctc_log_prob(lp, CtcTarget(glosses)).item()
        want = brute_force_log_prob(lp, glosses)
        assert got == pytest.approx(want, abs=1e-10) or (
            got == -np.inf and want == -np.inf
        )

    def test_total_mass_over_targets_bounded(self):
        # Exhaustively over targets at T <= 4, |G| <= 2: sum of p(G|V) <= 1.
        rng = np.random.default_rng(4)
        for t in (1, 2, 3, 4):
            lp = random_log_rows(t, 3, rng)
            total = 0.0
            for n in range(0, t + 1):
                for glosses in itertools.product((1, 2), repeat=n):
                    val = losses.ctc_log_prob(lp, CtcTarget(glosses)).item()
                    if np.isfinite(val):
                        total += np.exp(val)
            assert total <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        lp = random_log_rows(4, 3, rng)
        glosses = (1, 2) if seed % 2 == 0 else (2, 2)

        with Graph() as g:
            x = Tensor(lp, requires_grad=True)
            out = losses.ctc_log_prob(x, CtcTarget(glosses))
            ad.backward(g, out)

        num = finite_difference_grad(
            lambda v: losses.ctc_log_prob(v, CtcTarget(glosses)).item(), lp
        )
        assert_grad_close(x.grad, num)

    def test_gradient_through_log_softmax(self):
        # The composed path logits -> log_softmax -> ctc is the training shape.
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 3))

        def f(v):
            shifted = v - v.max(axis=1, keepdims=True)
            lsm = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return losses.ctc_log_prob(lsm, CtcTarget((1, 2))).item()

        with Graph() as g:
            x = Tensor(logits, requires_grad=True)
            out = losses.ctc_log_prob(ad.log_softmax(x, axis=-1), CtcTarget((1, 2)))
            ad.backward(g, out)
        assert_grad_close(x.grad, finite_difference_grad(f, logits))

    def test_infeasible_has_no_gradient_path(self):
        with Graph() as g:
            x = Tensor(random_log_rows(1, 3, np.random.default_rng(6)), requires_grad=True)
            out = losses.ctc_log_prob(x, CtcTarget((1, 1)))
            assert out.is_leaf()
        assert g.nodes == []


def one_frame_loss(log_p):
    """recognition_loss_batch of one frame emitting the target gloss with log p."""
    lp = np.array([[[np.log(0.5), log_p]]])
    loss, skipped = losses.recognition_loss_batch(Tensor(lp), [1], [CtcTarget((1,))])
    assert skipped == []
    return loss.item()


class TestRecognitionLoss:
    def test_perfect_recognition_is_zero(self):
        assert one_frame_loss(0.0) == 0.0

    def test_limits_as_p_vanishes(self):
        assert one_frame_loss(-np.inf) == np.inf

    def test_log_domain_is_negated_log(self):
        assert one_frame_loss(-2.5) == 2.5

    @given(st.floats(min_value=-20.0, max_value=0.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_p(self, log_p):
        # Larger p must mean smaller loss.
        eps = 0.01
        assert one_frame_loss(min(log_p + eps, 0.0)) <= one_frame_loss(log_p) + 1e-12


class TestTranslationLoss:
    def test_confident_correct_is_near_zero(self):
        logits = np.full((3, 4), -30.0)
        ref = [2, 0, 3]
        for u, r in enumerate(ref):
            logits[u, r] = 30.0
        assert losses.translation_loss(Tensor(logits), ref).item() < 1e-9

    def test_uniform_single_step(self):
        out = losses.translation_loss(Tensor(np.zeros((1, 4))), [2])
        assert out.item() == pytest.approx(np.log(4), abs=1e-12)

    def test_two_halves(self):
        logits = np.zeros((2, 2))
        logd = losses.translation_loss(Tensor(logits), [0, 1])
        assert logd.item() == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_equals_sum_of_independent_cross_entropies(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 6))
        ref = rng.integers(0, 6, size=5)
        got = losses.translation_loss(Tensor(logits), ref).item()
        want = 0.0
        for u in range(5):
            q = np.exp(logits[u]) / np.exp(logits[u]).sum()
            want -= np.log(q[ref[u]])
        assert got == pytest.approx(want, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            losses.translation_loss(Tensor(np.zeros((3, 4))), [1, 2])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(4, 5))
        ref = [1, 4, 0, 2]
        with Graph() as g:
            x = Tensor(logits, requires_grad=True)
            ad.backward(g, losses.translation_loss(x, ref))
        num = finite_difference_grad(
            lambda v: losses.translation_loss(Tensor(v), ref).item(), logits
        )
        assert_grad_close(x.grad, num)


class TestJointLoss:
    # the weighted sum itself is formed by model.batch_losses; its checks
    # live in tests/test_model.py (TestLossRouting)
    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            LossWeights(-1.0, 1.0)
        with pytest.raises(ConfigError):
            LossWeights(0.0, 0.0)


class TestBatchWrappers:
    def test_recognition_batch_averages_feasible_only(self):
        rng = np.random.default_rng(9)
        b, t_max, k = 3, 5, 4
        lp = np.stack([random_log_rows(t_max, k, rng) for _ in range(b)])
        counts = [5, 1, 4]
        targets = [CtcTarget((1, 2)), CtcTarget((1, 1)), CtcTarget((3,))]
        loss, skipped = losses.recognition_loss_batch(Tensor(lp), counts, targets)
        assert skipped == [1]
        want = np.mean(
            [
                -losses.ctc_log_prob(lp[0, :5], targets[0]).item(),
                -losses.ctc_log_prob(lp[2, :4], targets[2]).item(),
            ]
        )
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_recognition_batch_all_infeasible(self):
        lp = Tensor(np.log(np.full((1, 1, 2), 0.5)))
        loss, skipped = losses.recognition_loss_batch(lp, [1], [CtcTarget((1, 1))])
        assert loss is None and skipped == [0]

    def test_recognition_batch_gradient(self):
        rng = np.random.default_rng(10)
        lp = np.stack([random_log_rows(4, 3, rng) for _ in range(2)])
        targets = [CtcTarget((1,)), CtcTarget((2, 1))]

        def f(v):
            vals = [
                -losses.ctc_log_prob(v[0, :4], targets[0]).item(),
                -losses.ctc_log_prob(v[1, :3], targets[1]).item(),
            ]
            return float(np.mean(vals))

        with Graph() as g:
            x = Tensor(lp, requires_grad=True)
            loss, _ = losses.recognition_loss_batch(x, [4, 3], targets)
            ad.backward(g, loss)
        assert_grad_close(x.grad, finite_difference_grad(f, lp))

    def test_translation_batch_token_average(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(2, 3, 5))
        refs = np.array([[2, 4, 0], [1, 3, 2]])  # pad_id 0: first row has 2 real tokens
        real = refs != 0
        got = losses.translation_loss_batch(Tensor(logits[real]), refs[real]).item()
        per_tok = []
        for b, row in enumerate(refs):
            for u, r in enumerate(row):
                if r != 0:
                    q = np.exp(logits[b, u]) / np.exp(logits[b, u]).sum()
                    per_tok.append(-np.log(q[r]))
        assert got == pytest.approx(np.mean(per_tok), abs=1e-10)

    def test_translation_batch_matches_single_when_unpadded(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(1, 4, 6))
        ref = np.array([[2, 3, 1, 4]])
        got = losses.translation_loss_batch(Tensor(logits[0]), ref[0]).item()
        single = losses.translation_loss(Tensor(logits[0]), ref[0]).item()
        assert got == pytest.approx(single / 4, abs=1e-12)

    def test_translation_batch_pad_positions_get_no_gradient(self):
        # the loss reads packed real rows; a padded layout's pads get zeros
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(2, 3, 4))
        refs = np.array([[1, 2, 0], [3, 0, 0]])
        rows = Rows(refs != 0)
        with Graph() as g:
            x = Tensor(logits, requires_grad=True)
            ad.backward(g, losses.translation_loss_batch(rows.gather(x), rows.pack(refs)))
        assert np.all(x.grad[0, 2] == 0.0)
        assert np.all(x.grad[1, 1:] == 0.0)
        assert np.any(x.grad[0, 0] != 0.0)

    def test_translation_batch_takes_packed_references_only(self):
        logits = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(DimensionError):
            losses.translation_loss_batch(logits, np.array([[1, 2, 0], [3, 0, 0]]))
        with pytest.raises(ContractError):
            losses.translation_loss_batch(Tensor(np.zeros((0, 4))), np.array([], dtype=int))


def per_sample_recognition_loss(lp, counts, targets):
    """The per-sequence path: one ctc_log_prob node per feasible member.

    The terms are summed in batch order and scaled by 1/n, the way the
    batch form must reproduce bit for bit. Returns (loss, grad, skipped).
    """
    skipped, terms = [], []
    with Graph() as g:
        x = Tensor(lp, requires_grad=True)
        for i, (t_i, raw) in enumerate(zip(counts, targets)):
            target = CtcTarget(tuple(raw))
            if not target.feasible(int(t_i)):
                skipped.append(i)
                continue
            logp = losses.ctc_log_prob(x[i, : int(t_i)], target)
            terms.append(ad.neg(logp))
        if not terms:
            return None, None, skipped
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        loss = total * (1.0 / len(terms))
        ad.backward(g, loss * 5.0)
    return loss.item(), x.grad, skipped


def batched_recognition_loss(lp, counts, targets):
    with Graph() as g:
        x = Tensor(lp, requires_grad=True)
        loss, skipped = losses.recognition_loss_batch(
            x, counts, [CtcTarget(tuple(t)) for t in targets]
        )
        if loss is None:
            return None, None, skipped
        ad.backward(g, loss * 5.0)
        assert len(g.nodes) == 2  # one CTC node for the batch, then the scaling
    return loss.item(), x.grad, skipped


def random_batch(rng, b, t_max, k, max_n=5, repeats=False):
    lp = np.stack([random_log_rows(t_max, k, rng) for _ in range(b)])
    counts = rng.integers(1, t_max + 1, size=b)
    counts[0] = t_max
    targets = []
    for _ in range(b):
        n = int(rng.integers(0, max_n + 1))
        if repeats:
            targets.append(tuple(int(rng.choice([1, 2])) for _ in range(n)))
        else:
            targets.append(tuple(int(g) for g in rng.integers(1, k, size=n)))
    return lp, counts, targets


def assert_bitwise_same(got, want):
    loss_g, grad_g, skipped_g = got
    loss_w, grad_w, skipped_w = want
    assert skipped_g == skipped_w
    assert loss_g == loss_w
    if grad_w is None:
        assert grad_g is None
    else:
        assert grad_g.shape == grad_w.shape
        assert np.array_equal(grad_g, grad_w)


class TestBatchedCtcOracle:
    """recognition_loss_batch runs one lattice; it must equal the per-sample path.

    The one-value "mode" parameter names the loss form in the test ids: -log p,
    the only one the package trains.
    """

    @pytest.mark.parametrize("mode", ["log-domain"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_batches_bitwise_equal_per_sample(self, seed, mode):
        rng = np.random.default_rng(900 + seed)
        b, t_max, k = int(rng.integers(2, 9)), int(rng.integers(3, 12)), int(rng.integers(3, 7))
        lp, counts, targets = random_batch(rng, b, t_max, k, repeats=seed % 3 == 0)
        want = per_sample_recognition_loss(lp, counts, targets)
        assert_bitwise_same(batched_recognition_loss(lp, counts, targets), want)

    @pytest.mark.parametrize("mode", ["log-domain"])
    def test_unequal_lengths_repeats_empty_and_infeasible(self, mode):
        rng = np.random.default_rng(31)
        lp = np.stack([random_log_rows(9, 4, rng) for _ in range(6)])
        counts = [9, 4, 7, 2, 9, 3]
        targets = [(1, 1, 2), (3,), (), (2, 2), (1, 2, 3, 1), (1, 1)]
        got = batched_recognition_loss(lp, counts, targets)
        assert got[2] == [3]  # (2, 2) needs 3 frames; (1, 1) fits exactly 3
        assert_bitwise_same(got, per_sample_recognition_loss(lp, counts, targets))
        # members' gradients stay inside their own frames; skipped rows get none
        assert np.all(got[1][1, 4:] == 0.0) and np.all(got[1][3] == 0.0)

    def test_all_infeasible_batch(self):
        lp = np.stack([random_log_rows(2, 3, np.random.default_rng(3)) for _ in range(2)])
        got = batched_recognition_loss(lp, [2, 1], [(1, 1), (1, 2)])
        assert got == (None, None, [0, 1])

    @pytest.mark.parametrize("mode", ["log-domain"])
    def test_batch_of_one(self, mode):
        rng = np.random.default_rng(32)
        lp = random_log_rows(5, 3, rng)[None]
        for target in [(), (1,), (2, 2), (1, 2, 1)]:
            got = batched_recognition_loss(lp, [5], [target])
            assert_bitwise_same(got, per_sample_recognition_loss(lp, [5], [target]))

    def test_only_empty_targets(self):
        rng = np.random.default_rng(33)
        lp = np.stack([random_log_rows(4, 3, rng) for _ in range(3)])
        got = batched_recognition_loss(lp, [4, 1, 3], [(), (), ()])
        assert_bitwise_same(got, per_sample_recognition_loss(lp, [4, 1, 3], [(), (), ()]))
        want = -np.mean([lp[0, :4, 0].sum(), lp[1, :1, 0].sum(), lp[2, :3, 0].sum()])
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_zero_probability_member_gets_no_gradient(self):
        rng = np.random.default_rng(34)
        lp = np.stack([random_log_rows(3, 3, rng) for _ in range(2)])
        lp[1, :, 2] = -np.inf  # member 1's only gloss can never be emitted
        got = batched_recognition_loss(lp, [3, 3], [(1,), (2,)])
        assert got[0] == np.inf
        assert np.all(got[1][1] == 0.0) and np.any(got[1][0] != 0.0)

    def test_nan_member_gives_non_finite_loss_without_warning(self, recwarn):
        rng = np.random.default_rng(14)
        lp = np.stack([random_log_rows(4, 3, rng) for _ in range(2)])
        lp[1, 2] = np.nan
        loss, skipped = losses.recognition_loss_batch(
            Tensor(lp), [4, 4], [CtcTarget((1, 2)), CtcTarget((2,))]
        )
        assert skipped == [] and not np.isfinite(loss.item())
        assert len(recwarn) == 0

    def test_out_of_range_gloss_id(self):
        lp = Tensor(np.stack([random_log_rows(3, 3, np.random.default_rng(35))] * 2))
        with pytest.raises(VocabularyError):
            losses.recognition_loss_batch(lp, [3, 3], [CtcTarget((1,)), CtcTarget((3,))])

    def test_frame_count_beyond_padding(self):
        lp = Tensor(np.stack([random_log_rows(3, 3, np.random.default_rng(36))] * 2))
        with pytest.raises(DimensionError):
            losses.recognition_loss_batch(lp, [3, 4], [CtcTarget((1,)), CtcTarget((2,))])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(950 + seed)
        b, t_max, k = 4, 5, int(rng.integers(2, 4))
        lp, counts, targets = random_batch(rng, b, t_max, k, max_n=3)
        loss, skipped = losses.recognition_loss_batch(
            Tensor(lp), counts, [CtcTarget(t) for t in targets]
        )
        terms = [-brute_force_log_prob(lp[i, : counts[i]], targets[i])
                 for i in range(b) if i not in skipped]
        if not terms:
            assert loss is None
            return
        assert loss.item() == pytest.approx(np.mean(terms), abs=1e-10)
