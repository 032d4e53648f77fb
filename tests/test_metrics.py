"""Metric tests: exhaustive edit-distance parity and hand-computed BLEU."""

import hashlib
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import metrics
from signscribe.errors import ContractError
from signscribe.evaluation import corpus_wer

from conftest import edge_case_corpus, oracle_bleu


def brute_force_edit_distance(ref, hyp):
    """Plain three-way recursion, memoized. Reference implementation only."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        same = ref[i - 1] == hyp[j - 1]
        return min(
            go(i - 1, j - 1) + (0 if same else 1),
            go(i, j - 1) + 1,
            go(i - 1, j) + 1,
        )

    return go(len(ref), len(hyp))


class TestWer:
    def test_identity_is_zero(self):
        report = metrics.wer("a b c", "a b c")
        assert report.wer == 0.0
        assert (report.substitutions, report.deletions, report.insertions) == (0, 0, 0)

    def test_single_deletion(self):
        report = metrics.wer("a b c", "a c")
        assert report.deletions == 1
        assert report.substitutions == report.insertions == 0
        assert report.wer == pytest.approx(33.3333, abs=1e-3)
        assert report.del_rate == pytest.approx(33.3333, abs=1e-3)

    def test_can_exceed_hundred(self):
        report = metrics.wer("a", "b c")
        assert report.substitutions == 1 and report.insertions == 1
        assert report.wer == pytest.approx(200.0)

    def test_empty_hypothesis_is_all_deletions(self):
        report = metrics.wer("x y", "")
        assert report.deletions == 2 and report.wer == pytest.approx(100.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ContractError):
            metrics.wer("", "a")

    def test_counts_tie_to_rates_and_lengths(self):
        report = metrics.wer("a b a c", "b b c a")
        total = report.substitutions + report.deletions + report.insertions
        assert report.wer == pytest.approx(100.0 * total / report.ref_len)
        assert report.sub_rate + report.del_rate + report.ins_rate == pytest.approx(
            report.wer
        )

    def test_exhaustive_parity_with_recursion(self):
        # every (ref, hyp) pair over {a,b,c} with 1 <= |ref| <= 3, |hyp| <= 3
        alphabet = "abc"
        seqs = [
            list(s)
            for n in range(0, 4)
            for s in itertools.product(alphabet, repeat=n)
        ]
        for ref in seqs:
            if not ref:
                continue
            for hyp in seqs:
                report = metrics.wer(ref, hyp)
                total = report.substitutions + report.deletions + report.insertions
                assert total == brute_force_edit_distance(tuple(ref), tuple(hyp))

    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
        st.lists(st.sampled_from("abc"), min_size=0, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_randomized_parity_with_recursion(self, ref, hyp):
        report = metrics.wer(ref, hyp)
        total = report.substitutions + report.deletions + report.insertions
        assert total == brute_force_edit_distance(tuple(ref), tuple(hyp))
        # alignment accounting: matches close both sequences
        matches = report.ref_len - report.substitutions - report.deletions
        assert matches + report.substitutions + report.insertions == len(hyp)

    def test_tie_break_prefers_substitution(self):
        # "a" -> "b" could be del+ins (cost 2) or one sub (cost 1); and when
        # costs tie the backtrace must pick substitution first.
        report = metrics.wer("a b", "c b")
        assert report.substitutions == 1
        assert report.deletions == report.insertions == 0


class TestBleu:
    def test_perfect_corpus(self):
        refs = ["the cat sat", "a b c d"]
        report = metrics.bleu(refs, list(refs))
        assert report.bleu4 == pytest.approx(100.0)
        assert report.brevity_penalty == 1.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)

    def test_no_overlap_is_zero(self):
        report = metrics.bleu(["a b c"], ["x y z"])
        assert (report.bleu1, report.bleu2, report.bleu3, report.bleu4) == (0, 0, 0, 0)

    def test_short_hypothesis_brevity_fixture(self):
        # p1 = p2 = 1 but c=2 < r=3, so BLEU-2 = 100 * exp(1 - 3/2) = 60.65
        report = metrics.bleu(["the cat sat"], ["the cat"])
        assert report.precisions[0] == 1.0 and report.precisions[1] == 1.0
        assert report.brevity_penalty == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert report.bleu2 == pytest.approx(60.65, abs=0.01)

    def test_clipping_caps_repeated_words(self):
        # hyp repeats "the" 7 times; the reference only supports 2 of them
        report = metrics.bleu(["the cat is on the mat"], ["the the the the the the the"])
        assert report.precisions[0] == pytest.approx(2.0 / 7.0)
        assert report.brevity_penalty == 1.0  # c=7 > r=6
        assert report.bleu1 == pytest.approx(100.0 * 2.0 / 7.0, abs=1e-9)
        assert report.bleu2 == 0.0

    def test_single_token_hypothesis_zeroes_higher_orders(self):
        report = metrics.bleu(["a b"], ["a"])
        assert report.precisions[0] == 1.0
        assert report.precisions[1] == 0.0  # no candidate bigrams
        assert report.bleu1 > 0.0
        assert report.bleu2 == report.bleu3 == report.bleu4 == 0.0

    def test_corpus_pooling_matches_hand_counts(self):
        refs = ["a b c", "b c"]
        hyps = ["a b", "b d"]
        report = metrics.bleu(refs, hyps)
        # unigrams: matched (a,b) + (b) = 3 of 4; bigrams: (a b) = 1 of 2
        assert report.precisions[0] == pytest.approx(3.0 / 4.0)
        assert report.precisions[1] == pytest.approx(1.0 / 2.0)
        # c = 4, r = 5 -> BP = exp(1 - 5/4)
        assert report.brevity_penalty == pytest.approx(np.exp(-0.25), abs=1e-12)
        want2 = 100.0 * np.exp(-0.25) * np.exp(0.5 * (np.log(0.75) + np.log(0.5)))
        assert report.bleu2 == pytest.approx(want2, abs=1e-9)

    def test_permutation_invariance(self):
        refs = ["a b c", "d e", "f g h i"]
        hyps = ["a b", "d d", "f g x i"]
        direct = metrics.bleu(refs, hyps)
        perm = [2, 0, 1]
        shuffled = metrics.bleu([refs[i] for i in perm], [hyps[i] for i in perm])
        assert direct == shuffled

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            metrics.bleu(["a"], ["a", "b"])

    def test_all_empty_hypotheses(self):
        report = metrics.bleu(["a b"], [""])
        assert report.brevity_penalty == 0.0
        assert report.bleu1 == 0.0

    @pytest.mark.parametrize("n_words", [3, 8])
    def test_equals_the_counter_oracle(self, n_words):
        # 100 seeded corpora per vocabulary size, each with empty and short
        # hypotheses, n-grams to clip and identical pairs
        for seed in range(100):
            rng = np.random.default_rng([n_words, seed])
            refs, hyps = edge_case_corpus(rng, int(rng.integers(1, 30)), n_words)
            assert metrics.bleu(refs, hyps) == oracle_bleu(refs, hyps)

    def test_empty_corpus_and_mixed_token_types(self):
        assert metrics.bleu([], []) == oracle_bleu([], [])
        refs, hyps = [[1, 2, 1, 2], ["1", 2.0, "a b"]], [[1.0, 2, 1, "2"], ["1", 2, "a b"]]
        assert metrics.bleu(refs, hyps) == oracle_bleu(refs, hyps)

    def test_token_list_and_string_inputs_agree(self):
        a = metrics.bleu([["w1", "w2", "w3"]], [["w1", "w2"]])
        b = metrics.bleu(["w1 w2 w3"], ["w1 w2"])
        assert a == b


def test_corpus_reports_are_pinned():
    # the bits of the BLEU and corpus WER reports of 20 seeded corpora, each
    # holding empty and short hypotheses, n-grams to clip and identical pairs
    h = hashlib.sha256()
    for seed in range(20):
        refs, hyps = edge_case_corpus(np.random.default_rng(seed))
        h.update(repr(metrics.bleu(refs, hyps)).encode())
        h.update(repr(corpus_wer(refs, hyps)).encode())
    assert h.hexdigest() == "00531034f46954f74a07ec6e8e679447b4e9ba26fe4598ca17a18802bf6aa079"
