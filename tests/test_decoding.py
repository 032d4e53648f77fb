"""Decoder tests: collapse rules, prefix beam exactness, beam-vs-exhaustive."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import decoding as dec
from signscribe.decoding import DecodeConfig, Hypothesis
from signscribe.errors import ConfigError, ContractError

from conftest import (
    RandomDecoder,
    ReplayDecoder,
    exhaustive_best,
    log_add,
    oracle_beam_search,
    oracle_chunk,
    oracle_ctc_beam_search,
)

EOS = 2


def log_rows(t, k, rng):
    rows = rng.random((t, k)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return np.log(rows)


def naive_collapse(path, blank=0):
    out, prev = [], None
    for s in path:
        if s != prev:
            out.append(s)
        prev = s
    return tuple(s for s in out if s != blank)


def collapsed_sequence_scores(lp, blank=0):
    """Map each collapsed sequence to its total path log-probability."""
    t, k = lp.shape
    scores = {}
    for path in itertools.product(range(k), repeat=t):
        seq = naive_collapse(path, blank)
        val = sum(lp[i, s] for i, s in enumerate(path))
        scores[seq] = np.logaddexp(scores.get(seq, -np.inf), val)
    return scores


class ToyDecoder(ReplayDecoder):
    """Sentence pathway whose logits depend only on the prefix, via a table."""

    def __init__(self, table, default):
        self.table = {tuple(k): np.asarray(v, dtype=float) for k, v in table.items()}
        self.default = np.asarray(default, dtype=float)

    def prefix_logits(self, z, mask, prefix):
        return self.table.get(tuple(prefix), self.default)

    def prefix_logits_batch(self, z_batch, mask_batch, indices, prefixes):
        return np.stack([self.prefix_logits(None, None, p) for p in prefixes])


class TestCollapse:
    def test_blank_a_a_blank_b(self):
        assert dec.collapse_path([0, 1, 1, 0, 2]) == (1, 2)

    def test_all_blank(self):
        assert dec.collapse_path([0, 0, 0]) == ()

    def test_repeat_across_blank_survives(self):
        assert dec.collapse_path([1, 0, 1]) == (1, 1)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_collapse(self, path):
        assert dec.collapse_path(path) == naive_collapse(path)


class TestCtcGreedy:
    def test_collapses_argmax_path(self):
        lp = np.log(
            np.array(
                [
                    [0.8, 0.1, 0.1],
                    [0.1, 0.8, 0.1],
                    [0.2, 0.7, 0.1],
                    [0.9, 0.05, 0.05],
                    [0.1, 0.2, 0.7],
                ]
            )
        )
        assert dec.ctc_greedy(lp) == (1, 2)

    def test_all_blank_gives_empty(self):
        lp = np.log(np.array([[0.9, 0.05, 0.05]] * 4))
        assert dec.ctc_greedy(lp) == ()

    def test_argmax_tie_takes_lowest_index(self):
        lp = np.log(np.array([[0.4, 0.4, 0.2]]))
        assert dec.ctc_greedy(lp) == ()  # blank (index 0) wins the tie


class TestCtcBeamSearch:
    def test_width_must_be_positive(self):
        with pytest.raises(ConfigError):
            dec.ctc_beam_search(np.zeros((2, 2)), 0)

    def test_width_one_equals_greedy_on_peaked_input(self):
        # One symbol dominates every frame, so the modal path is unambiguous.
        lp = np.log(
            np.array([[0.05, 0.9, 0.05], [0.9, 0.05, 0.05], [0.05, 0.05, 0.9]])
        )
        assert dec.ctc_beam_search(lp, 1) == dec.ctc_greedy(lp) == (1, 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_against_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        t = int(rng.integers(1, 5))
        lp = log_rows(t, 3, rng)
        scores = collapsed_sequence_scores(lp)
        want = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        assert dec.ctc_beam_search(lp, 64) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_beats_or_ties_greedy_under_sequence_score(self, seed):
        rng = np.random.default_rng(400 + seed)
        lp = log_rows(int(rng.integers(2, 5)), 3, rng)
        scores = collapsed_sequence_scores(lp)
        beam_seq = dec.ctc_beam_search(lp, 64)
        greedy_seq = dec.ctc_greedy(lp)
        assert scores[beam_seq] >= scores.get(greedy_seq, -np.inf) - 1e-12


def ragged_batch(rng, n, n_frames, k, *, rounded=False):
    """(n, n_frames, k) log-probabilities and n frame counts in [0, n_frames].

    rounded=True returns logits rounded to integers, so many path scores tie
    exactly; padded frames past a count hold garbage the search must ignore.
    """
    x = rng.normal(size=(n, n_frames, k)) * 2.0
    if rounded:
        lp = np.round(x)
    else:
        lp = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
    counts = rng.integers(0, n_frames + 1, size=n)
    return lp, counts


def oracle_batch(lp, counts, width):
    return [oracle_ctc_beam_search(lp[i, :t], width) for i, t in enumerate(counts)]


class TestCtcBeamSearchBatch:
    def test_width_must_be_positive(self):
        with pytest.raises(ConfigError):
            dec.ctc_beam_search_batch(np.zeros((1, 2, 2)), [2], 0)

    def test_frame_counts_must_fit_the_array(self):
        with pytest.raises(ContractError):
            dec.ctc_beam_search_batch(np.zeros((2, 3, 2)), [3, 4], 2)
        with pytest.raises(ContractError):
            dec.ctc_beam_search_batch(np.zeros((2, 3, 2)), [3], 2)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_ragged_batches_match_the_scalar_oracle(self, width):
        rng = np.random.default_rng(500 + width)
        for _ in range(8):
            lp, counts = ragged_batch(rng, int(rng.integers(1, 7)), int(rng.integers(1, 9)),
                                      int(rng.integers(1, 6)))
            assert dec.ctc_beam_search_batch(lp, counts, width) == oracle_batch(lp, counts, width)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_exact_score_ties_match_the_scalar_oracle(self, width):
        # integer logits make many candidates tie at the width-th place, and
        # those ties are ranked by the prefix tuple
        rng = np.random.default_rng(600 + width)
        for _ in range(8):
            lp, counts = ragged_batch(rng, int(rng.integers(1, 7)), int(rng.integers(1, 9)),
                                      int(rng.integers(2, 6)), rounded=True)
            assert dec.ctc_beam_search_batch(lp, counts, width) == oracle_batch(lp, counts, width)
        flat = np.zeros((3, 6, 4))
        assert dec.ctc_beam_search_batch(flat, [6, 3, 1], width) == oracle_batch(
            flat, [6, 3, 1], width)

    def test_width_above_the_candidate_count(self):
        rng = np.random.default_rng(700)
        for rounded in (False, True):
            lp, counts = ragged_batch(rng, 5, 4, 3, rounded=rounded)
            assert dec.ctc_beam_search_batch(lp, counts, 64) == oracle_batch(lp, counts, 64)

    @pytest.mark.parametrize("width", (1, 3, 64))
    def test_zero_and_one_frames(self, width):
        rng = np.random.default_rng(800 + width)
        lp, _ = ragged_batch(rng, 4, 3, 4)
        counts = [0, 1, 0, 1]
        got = dec.ctc_beam_search_batch(lp, counts, width)
        assert got == oracle_batch(lp, counts, width)
        assert got[0] == got[2] == ()
        assert dec.ctc_beam_search_batch(np.zeros((2, 0, 3)), [0, 0], width) == [(), ()]

    @pytest.mark.parametrize("seed", range(4))
    def test_a_sequence_decodes_alike_in_any_subset_or_order(self, seed):
        rng = np.random.default_rng(900 + seed)
        lp, counts = ragged_batch(rng, 6, 7, 4, rounded=seed % 2 == 1)
        whole = dec.ctc_beam_search_batch(lp, counts, 3)
        perm = rng.permutation(6)
        assert dec.ctc_beam_search_batch(lp[perm], counts[perm], 3) == [whole[i] for i in perm]
        subset = np.sort(rng.choice(6, size=3, replace=False))
        # the subset keeps only as many frames as its longest sequence
        trimmed = lp[subset][:, :max(1, counts[subset].max())]
        assert dec.ctc_beam_search_batch(trimmed, counts[subset], 3) == [whole[i] for i in subset]

    def test_single_search_is_the_batch_of_one(self):
        rng = np.random.default_rng(1000)
        lp, counts = ragged_batch(rng, 4, 6, 5)
        for i, t in enumerate(counts):
            assert dec.ctc_beam_search(lp[i, :t], 4) == dec.ctc_beam_search_batch(
                lp, counts, 4)[i] == oracle_ctc_beam_search(lp[i, :t], 4)


class TestHypothesis:
    def test_positive_log_prob_rejected(self):
        with pytest.raises(ContractError):
            Hypothesis((1,), 0.5, False)

    def test_words_strips_trailing_eos(self):
        assert Hypothesis((4, 5, EOS), -1.0, True).words() == (4, 5)
        assert Hypothesis((4, 5), -1.0, False).words() == (4, 5)


class TestDecodeConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DecodeConfig(beam_width=-1)
        with pytest.raises(ConfigError):
            DecodeConfig(alpha=2.5)
        with pytest.raises(ConfigError):
            DecodeConfig(max_len=0)

    def test_length_penalty_monotone(self):
        for alpha in (0.5, 1.0, 2.0):
            vals = [dec.length_penalty(u, alpha) for u in range(12)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(dec.length_penalty(u, 0.0) == 1.0 for u in range(12))


class TestArGreedy:
    def test_eos_lover_gives_empty_translation(self):
        logits = np.full(4, -5.0)
        logits[EOS] = 5.0
        toy = ToyDecoder({}, logits)
        hyp = dec.ar_greedy(None, None, toy, 10)
        assert hyp.finished and hyp.tokens == (EOS,) and hyp.words() == ()

    def test_max_len_caps_output(self):
        logits = np.zeros(4)
        logits[3] = 5.0  # never emits <eos>
        toy = ToyDecoder({}, logits)
        hyp = dec.ar_greedy(None, None, toy, 1)
        assert hyp.tokens == (3,) and not hyp.finished

    def test_manual_trace(self):
        # step 1 picks 3, step 2 picks 1, step 3 picks <eos>
        toy = ToyDecoder(
            {
                (): [0.0, 1.0, -9.0, 7.0],
                (3,): [0.0, 6.0, -9.0, 1.0],
                (3, 1): [0.0, -9.0, 8.0, 1.0],
            },
            np.zeros(4),
        )
        hyp = dec.ar_greedy(None, None, toy, 10)
        assert hyp.tokens == (3, 1, EOS)
        assert hyp.finished
        want = 0.0
        for prefix, choice in (((), 3), ((3,), 1), ((3, 1), EOS)):
            logits = toy.prefix_logits(None, None, prefix)
            q = np.exp(logits) / np.exp(logits).sum()
            want += np.log(q[choice])
        assert hyp.log_prob == pytest.approx(want, abs=1e-12)

    def test_forbidden_ids_never_chosen(self):
        logits = np.array([10.0, 9.0, 0.0, -1.0])
        toy = ToyDecoder({}, logits)
        hyp = dec.ar_greedy(None, None, toy, 3, forbid=(0, 1))
        assert all(t not in (0, 1) for t in hyp.tokens)

    def test_batch_matches_sequential(self):
        toys = RandomDecoder(5, 7)
        hyps = dec.ar_greedy_batch([None] * 4, [None] * 4, toys, 6)
        for h in hyps:
            single = dec.ar_greedy(None, None, toys, 6)
            assert h.tokens == single.tokens
            assert h.log_prob == pytest.approx(single.log_prob, abs=1e-12)


class TestArBeamSearch:
    def test_width_zero_is_greedy(self):
        toy = RandomDecoder(4, 11)
        cfg = DecodeConfig(beam_width=0, alpha=0.0, max_len=5)
        assert dec.ar_beam_search(None, None, toy, cfg) == dec.ar_greedy(None, None, toy, 5)

    def test_width_one_matches_greedy_tokens(self):
        for seed in range(5):
            toy = RandomDecoder(4, 500 + seed)
            cfg = DecodeConfig(beam_width=1, alpha=0.0, max_len=6)
            beam = dec.ar_beam_search(None, None, toy, cfg)
            greedy = dec.ar_greedy(None, None, toy, 6)
            assert beam.tokens == greedy.tokens

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_full_width_equals_exhaustive(self, seed, alpha):
        # width >= |W|^max_len explores everything, so it must match brute force.
        toy = RandomDecoder(3, 600 + seed)
        cfg = DecodeConfig(beam_width=27, alpha=alpha, max_len=3)
        got = dec.ar_beam_search(None, None, toy, cfg)
        want_seq, want_lp, want_fin = exhaustive_best(toy, 3, 3, alpha)
        assert got.tokens == want_seq
        assert got.log_prob == pytest.approx(want_lp, abs=1e-10)
        assert got.finished == want_fin

    def test_narrow_width_equals_exhaustive_on_fixed_toy(self):
        # a hand-picked table where width 3 already finds the global optimum
        toy = ToyDecoder(
            {
                (): [0.0, 1.0, 0.5, 2.0],
                (3,): [0.0, 2.0, 3.0, 0.1],
                (1,): [0.0, 0.1, 2.5, 0.2],
                (3, 2): [0.0, 0.0, 6.0, 0.0],
                (3, 1): [0.0, 0.0, 5.0, 0.0],
                (1, 2): [0.0, 0.0, 4.0, 0.0],
            },
            np.array([0.0, 0.0, 3.0, 0.0]),
        )
        cfg = DecodeConfig(beam_width=3, alpha=0.5, max_len=3)
        got = dec.ar_beam_search(None, None, toy, cfg)
        want_seq, want_lp, _ = exhaustive_best(toy, 4, 3, 0.5)
        assert got.tokens == want_seq
        assert got.log_prob == pytest.approx(want_lp, abs=1e-10)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_raw_score_never_below_greedy_at_alpha_zero(self, width):
        for seed in range(4):
            toy = RandomDecoder(4, 700 + seed * 13 + width)
            cfg = DecodeConfig(beam_width=width, alpha=0.0, max_len=5)
            beam = dec.ar_beam_search(None, None, toy, cfg)
            greedy = dec.ar_greedy(None, None, toy, 5)
            assert beam.log_prob >= greedy.log_prob - 1e-12

    def test_penalized_score_never_below_greedy_any_alpha(self):
        # greedy sits in the candidate pool, so the returned penalized score
        # dominates it even when alpha favors longer hypotheses
        for alpha in (0.0, 0.7, 2.0):
            for seed in range(3):
                toy = RandomDecoder(4, 800 + seed)
                cfg = DecodeConfig(beam_width=2, alpha=alpha, max_len=5)
                beam = dec.ar_beam_search(None, None, toy, cfg)
                greedy = dec.ar_greedy(None, None, toy, 5)
                if beam.finished or not greedy.finished:
                    g_score = greedy.log_prob / dec.length_penalty(len(greedy.tokens), alpha)
                    b_score = beam.log_prob / dec.length_penalty(len(beam.tokens), alpha)
                    assert b_score >= g_score - 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_batched_beams_equal_per_beam_oracle(self, width, alpha):
        cfg = DecodeConfig(beam_width=width, alpha=alpha, max_len=6)
        toys = [RandomDecoder(5, 1000 + seed) for seed in range(4)]
        toys.append(ToyDecoder({(): [0.0, 1.0, 0.5, 2.0], (3,): [0.0, 2.0, 3.0, 0.1]},
                               np.array([0.0, 0.0, 3.0, 0.0])))
        for toy in toys:
            for forbid in ((), (0, 1)):
                got = dec.ar_beam_search(None, None, toy, cfg, forbid=forbid)
                want = oracle_beam_search(lambda p: toy.prefix_logits(None, None, p),
                                          cfg, forbid=forbid)
                assert got == want

    def test_determinism(self):
        toy = RandomDecoder(4, 900)
        cfg = DecodeConfig(beam_width=4, alpha=1.0, max_len=5)
        a = dec.ar_beam_search(None, None, toy, cfg)
        b = dec.ar_beam_search(None, None, toy, cfg)
        assert a == b


class ChunkDecoder(ReplayDecoder):
    """Pathway over a chunk whose sources are toy decoders: z_batch[i] scores source i."""

    def __init__(self):
        self.calls = 0

    def prefix_logits_batch(self, z_batch, mask_batch, indices, prefixes):
        self.calls += 1
        assert len({len(p) for p in prefixes}) == 1, "prefixes must share a length"
        return np.stack([z_batch[i].prefix_logits(None, None, p)
                         for i, p in zip(indices, prefixes)])


class TestReplayDecoder:
    def test_each_row_scores_the_source_and_prefix_it_continues(self):
        sources = [RandomDecoder(6, 1500 + seed) for seed in range(3)]
        decoder = ChunkDecoder()
        state = decoder.start(sources, [None] * 3)

        def want(pairs):
            return ChunkDecoder().prefix_logits_batch(sources, None, [i for i, _ in pairs],
                                                      [prefix for _, prefix in pairs])

        # the first step names source 1 twice
        got = decoder.step(state, [1, 0, 1, 2], None)
        assert np.array_equal(got, want([(1, ()), (0, ()), (1, ()), (2, ())]))
        # the second reorders rows, repeats row 2 and drops row 0
        got = decoder.step(state, [3, 2, 2, 1], [4, 5, 3, 1])
        assert np.array_equal(got, want([(2, (4,)), (1, (5,)), (1, (3,)), (0, (1,))]))
        got = decoder.step(state, [1, 3], [2, 5])
        assert np.array_equal(got, want([(1, (5, 2)), (0, (1, 5))]))
        # the sources score differently, so a row on the wrong source would show
        assert not np.array_equal(want([(0, (4,))]), want([(2, (4,))]))
        assert decoder.calls == 3  # one rescoring call per step


def eos_lover(n_words):
    logits = np.full(n_words, -5.0)
    logits[EOS] = 5.0
    return ToyDecoder({}, logits)


def eos_hater(n_words):
    # <eos> never ranks among the best four extensions of a beam
    logits = np.zeros(n_words)
    logits[EOS] = -60.0
    logits[3] = 2.0
    return ToyDecoder({(): np.arange(n_words, dtype=float)}, logits)


def mixed_chunk(n_words=8):
    """Random, finishing and never-finishing sources, each with its own cap."""
    sources = [RandomDecoder(n_words, 1100 + seed) for seed in range(5)]
    sources += [eos_lover(n_words), eos_hater(n_words), RandomDecoder(n_words, 1200)]
    caps = [6, 1, 3, 5, 2, 4, 5, 6]
    return sources, caps


class TestChunkBeamSearch:
    @pytest.mark.parametrize("forbid", [(), (0, 1)])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("width", [0, 1, 2, 3, 4])
    def test_every_source_equals_its_own_oracle(self, width, alpha, forbid):
        sources, caps = mixed_chunk()
        pools = dec.ar_beam_pools(sources, [None] * len(sources), ChunkDecoder(), width,
                                  caps, forbid=forbid)
        got = [dec.best_hypothesis(pool, alpha) for pool in pools]
        scorers = [lambda p, src=src: src.prefix_logits(None, None, p) for src in sources]
        assert got == oracle_chunk(scorers, caps, width, alpha, forbid=forbid)
        # the chunk holds finished and unfinished results
        assert {h.finished for h in got} == {True, False}

    @pytest.mark.parametrize("width", [1, 3])
    def test_pools_do_not_depend_on_chunk_mates(self, width):
        sources, caps = mixed_chunk()
        full = dec.ar_beam_pools(sources, [None] * len(sources), ChunkDecoder(), width,
                                 caps, forbid=(0, 1))
        rng = np.random.default_rng(5)
        picks = [[0], [6], [2, 5], list(range(8))[::-1]]
        picks += [list(rng.permutation(8)[: rng.integers(2, 8)]) for _ in range(4)]
        for pick in picks:
            sub = dec.ar_beam_pools([sources[i] for i in pick], [None] * len(pick),
                                    ChunkDecoder(), width, [caps[i] for i in pick],
                                    forbid=(0, 1))
            assert sub == [full[i] for i in pick], pick

    def test_given_greedy_joins_the_pool_unchanged(self):
        sources, caps = mixed_chunk()
        greedy = dec.ar_greedy_batch(sources, [None] * 8, ChunkDecoder(), caps)
        decoder = ChunkDecoder()
        pools = dec.ar_beam_pools(sources, [None] * 8, decoder, 2, caps, greedy=greedy)
        assert [pool[-1] for pool in pools] == greedy
        assert pools == dec.ar_beam_pools(sources, [None] * 8, ChunkDecoder(), 2, caps)
        assert decoder.calls <= max(caps)  # the greedy pass was not repeated
        for width in (2, 3, 5):
            # without a given greedy pass, the greedy and beam tracks share
            # every step: one decoder call per step, as with greedy given
            decoder = ChunkDecoder()
            one_pass = dec.ar_beam_pools(sources, [None] * 8, decoder, width, caps)
            assert decoder.calls <= max(caps), width
            assert one_pass == dec.ar_beam_pools(sources, [None] * 8, ChunkDecoder(), width,
                                                 caps, greedy=greedy)

    def test_bad_width_and_caps_rejected(self):
        sources, caps = mixed_chunk()
        with pytest.raises(ConfigError):
            dec.ar_beam_pools(sources, [None] * 8, ChunkDecoder(), -1, caps)
        with pytest.raises(ConfigError):
            dec.ar_beam_pools(sources, [None] * 8, ChunkDecoder(), 2, caps[:3])
        with pytest.raises(ConfigError):
            dec.ar_beam_pools(sources, [None] * 8, ChunkDecoder(), 2, [0] * 8)


class TestGreedyIsWidthOneBeam:
    @pytest.mark.parametrize("forbid", [(), (0, 1)])
    def test_greedy_equals_first_beam_of_width_one(self, forbid):
        sources, caps = mixed_chunk()
        sources += [RandomDecoder(8, 1300 + seed) for seed in range(6)]
        caps += [1, 2, 4, 6, 7, 8]
        greedy = dec.ar_greedy_batch(sources, [None] * 14, ChunkDecoder(), caps, forbid=forbid)
        pools = dec.ar_beam_pools(sources, [None] * 14, ChunkDecoder(), 1, caps, forbid=forbid)
        assert [pool[0] for pool in pools] == greedy
        assert all(len(pool) == 2 for pool in pools)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_all_equal_logits_keep_the_lowest_ids(self, width):
        toy = ToyDecoder({}, np.zeros(6))
        (pool,) = dec.ar_beam_pools([toy], [None], ChunkDecoder(), width, 1)
        assert [h.tokens for h in pool[:-1]] == [(w,) for w in range(width)]
        assert pool[-1].tokens == (0,)
        assert dec.ar_greedy(None, None, toy, 3).tokens == (0, 0, 0)

    def test_rounding_tie_takes_the_lower_id(self):
        # Step 1 costs exactly -50 (token 0 is forbidden but keeps its mass).
        # At step 2, token 4's log-probability is one ulp above token 3's, yet
        # both running totals round to -100.0, so token 3 wins the tie.
        q3, q4 = 0.0 - 50.0, 2.0 ** -47 - 50.0
        assert q4 > q3 and -50.0 + q3 == -50.0 + q4
        toy = ToyDecoder({(): [50.0, 0.0, -100.0, 0.0, 0.0],
                          (1,): [50.0, -100.0, -100.0, 0.0, 2.0 ** -47]},
                         np.zeros(5))
        hyp = dec.ar_greedy(None, None, toy, 2, forbid=(0,))
        assert hyp == Hypothesis((1, 3), -100.0, False)
        (pool,) = dec.ar_beam_pools([toy], [None], ChunkDecoder(), 1, 2, forbid=(0,))
        assert pool == [hyp, hyp]

    def test_nan_row_keeps_the_unfinished_prefix(self):
        nan_at_step_two = ToyDecoder({(): [0.0, 1.0, -9.0, 7.0]}, np.full(4, np.nan))
        hyp = dec.ar_greedy(None, None, nan_at_step_two, 5)
        assert hyp.tokens == (3,) and not hyp.finished and np.isfinite(hyp.log_prob)
        # the stalled source leaves its chunk mates as they are alone
        sources = [nan_at_step_two, RandomDecoder(4, 1400), eos_hater(4)]
        for width in (0, 1, 3):
            pools = dec.ar_beam_pools(sources, [None] * 3, ChunkDecoder(), width, 5)
            for src, pool in zip(sources[1:], pools[1:]):
                assert pool == dec.ar_beam_pools([src], [None], ChunkDecoder(), width, 5)[0]
            assert all(len(h.tokens) == 1 and not h.finished for h in pools[0])


class TestLogAdd:
    """The scalar oracle's log_add is np.logaddexp bit for bit, so the oracle
    search and the batched one add the same floats."""

    def test_matches_numpy_bit_for_bit(self):
        grid = [-np.inf, np.inf, -800.0, -40.0, -1.5, -1e-300, 0.0, 1e-300, 0.3, 2.0, 700.0]
        rng = np.random.default_rng(9)
        grid += list(rng.normal(size=40) * rng.choice([1e-3, 1.0, 50.0], size=40))
        for a in grid:
            for b in grid:
                got = log_add(float(a), float(b))
                want = float(np.logaddexp(a, b))
                assert got == want, (a, b, got, want)

    def test_equal_arguments_add_log_two(self):
        for a in (-3.0, 0.0, 12.5):
            assert log_add(a, a) == a + np.log(2.0)
        assert log_add(-np.inf, -np.inf) == -np.inf
