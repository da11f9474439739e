"""Preprocessing, vocabulary, embedding training, vectorization, caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab.errors import FormatError, UsageError
from fflab.porter import stem
from fflab.rng import Rng
from fflab.text_data import (
    STOPWORDS,
    build_vocab,
    corpus_fingerprint,
    encode_corpus,
    init_embeddings,
    label_slots,
    load_cached_embeddings,
    load_embeddings,
    noise_cdf,
    preprocess,
    save_embeddings,
    train_sgns,
    vectorize_review,
)

from oracles import central_diff_grad, epoch_batches, rel_err, sgns_pair_grads


def make_clique_corpus(n_reviews=300, per_clique=6, length=10, seed=55):
    rng = Rng(seed)
    cliques = (
        [f"a{i}" for i in range(per_clique)],
        [f"b{i}" for i in range(per_clique)],
    )
    corpus = []
    for n in range(n_reviews):
        clique = cliques[n % 2]
        corpus.append([clique[int(rng.randint(per_clique))] for _ in range(length)])
    return corpus, cliques


class TestPreprocess:
    def test_tag_stripping_and_stemming(self):
        assert preprocess("<br />Great movie!") == ["great", "movi"]

    def test_all_stopwords(self):
        assert preprocess("the a an") == []

    def test_idempotent_on_rejoined_output(self):
        text = (
            "<p>This movie was NOT amazing; the acting, the doings and the "
            "endings were a total disappointment!</p>"
        )
        once = preprocess(text)
        again = preprocess(" ".join(once))
        assert once == again

    def test_numbers_survive(self):
        assert "42" in preprocess("42 reasons to watch")

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
                   max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_idempotence_property(self, text):
        once = preprocess(text)
        assert preprocess(" ".join(once)) == once

    def test_stopword_list_size(self):
        assert 120 <= len(STOPWORDS) <= 200
        for negation in ("not", "no", "nor", "never"):
            assert negation not in STOPWORDS


class TestPorter:
    # canonical pairs for the standard rule set
    CASES = [
        ("caresses", "caress"), ("ponies", "poni"), ("cats", "cat"),
        ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
        ("motoring", "motor"), ("sing", "sing"), ("hopping", "hop"),
        ("happy", "happi"), ("sky", "sky"), ("relational", "relat"),
        ("conditional", "condit"), ("valenci", "valenc"),
        ("digitizer", "digit"), ("operator", "oper"),
        ("feudalism", "feudal"), ("decisiveness", "decis"),
        ("hopefulness", "hope"), ("formaliti", "formal"),
        ("sensibiliti", "sensibl"), ("triplicate", "triplic"),
        ("formative", "form"), ("formalize", "formal"),
        ("electrical", "electr"), ("hopeful", "hope"),
        ("goodness", "good"), ("revival", "reviv"),
        ("allowance", "allow"), ("inference", "infer"),
        ("adjustable", "adjust"), ("defensible", "defens"),
        ("replacement", "replac"), ("adjustment", "adjust"),
        ("dependent", "depend"), ("adoption", "adopt"),
        ("communism", "commun"), ("activate", "activ"),
        ("effective", "effect"), ("probate", "probat"),
        ("rate", "rate"), ("cease", "ceas"), ("controll", "control"),
        ("roll", "roll"), ("movie", "movi"), ("movies", "movi"),
    ]

    @pytest.mark.parametrize("word,expected", CASES)
    def test_canonical_pairs(self, word, expected):
        assert stem(word) == expected

    def test_single_pass_is_not_idempotent_but_fixpoint_is(self):
        """agreed -> agre -> agr under single passes; the pipeline stems
        to convergence so its output is stable."""
        from fflab.text_data import stem_fixpoint

        assert stem("agreed") == "agre" and stem("agre") == "agr"
        for word, _ in self.CASES:
            s = stem_fixpoint(word)
            assert stem_fixpoint(s) == s
            assert stem(s) == s


class TestVocab:
    def test_deterministic_given_corpus(self):
        corpus, _ = make_clique_corpus()
        v1 = build_vocab(corpus, min_count=2)
        v2 = build_vocab(corpus, min_count=2)
        assert v1.tokens == v2.tokens

    def test_min_count_filters(self):
        corpus = [["common"] * 5 + ["rare"]]
        v = build_vocab(corpus, min_count=2)
        assert "common" in v.index and "rare" not in v.index

    def test_indices_dense_and_count_ordered(self):
        corpus = [["x"] * 3 + ["y"] * 5 + ["z"] * 4]
        v = build_vocab(corpus, min_count=1)
        assert v.tokens == ["y", "z", "x"]
        assert [v.index[t] for t in v.tokens] == [0, 1, 2]

    def test_encode_drops_oov(self):
        corpus = [["x", "x", "q"]]
        v = build_vocab(corpus, min_count=2)
        tokens, offsets = encode_corpus([["x", "q", "x"]], v)
        assert tokens.tolist() == [0, 0]
        assert offsets.tolist() == [0, 2]


class TestSgns:
    def test_pair_gradients_match_finite_differences(self):
        """One (center, context, negatives) step against central differences."""
        rng = Rng(77)
        d = 12
        vc = rng.uniform_array(d) - 0.5
        vo = rng.uniform_array(d) - 0.5
        vn = rng.uniform_array(3 * d).reshape(3, d) - 0.5
        d_c, d_o, d_n, _ = sgns_pair_grads(vc, vo, vn)

        def loss_center(v):
            return sgns_pair_grads(v, vo, vn)[3]

        def loss_context(v):
            return sgns_pair_grads(vc, v, vn)[3]

        def loss_negs(v):
            return sgns_pair_grads(vc, vo, v)[3]

        assert rel_err(d_c, central_diff_grad(loss_center, vc.copy())) < 1e-4
        assert rel_err(d_o, central_diff_grad(loss_context, vo.copy())) < 1e-4
        assert rel_err(d_n, central_diff_grad(loss_negs, vn.copy())) < 1e-4

    def test_clique_separation(self):
        """Intra-clique cosine beats inter-clique cosine after training."""
        corpus, (clique_a, clique_b) = make_clique_corpus()
        vocab = build_vocab(corpus, min_count=1)
        table = train_sgns(corpus, vocab, dim=16, window=3, neg_k=5, epochs=3, rng=Rng(56))
        norm = table / np.linalg.norm(table, axis=1, keepdims=True)
        cos = norm @ norm.T
        ia = [vocab.index[t] for t in clique_a]
        ib = [vocab.index[t] for t in clique_b]
        intra = np.mean([cos[i, j] for i in ia for j in ia if i != j])
        inter = np.mean([cos[i, j] for i in ia for j in ib])
        assert intra > inter + 0.3

    def test_zero_epochs_is_initialization(self):
        corpus, _ = make_clique_corpus(n_reviews=20)
        vocab = build_vocab(corpus, min_count=1)
        t0 = train_sgns(corpus, vocab, dim=8, window=2, epochs=0, rng=Rng(9))
        w0, _ = init_embeddings(len(vocab), 8, Rng(9))
        np.testing.assert_array_equal(t0, w0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            train_sgns([], build_vocab([["x"] * 5], 1), rng=Rng(1))

    def test_noise_cdf_shape(self):
        cdf = noise_cdf(np.array([4.0, 2.0, 1.0]))
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) > 0)


class TestVectorize:
    def _vocab_table(self):
        corpus = [["alpha", "beta"] * 3]
        vocab = build_vocab(corpus, min_count=1)
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        return vocab, table

    def test_single_token_is_its_row(self):
        vocab, table = self._vocab_table()
        np.testing.assert_array_equal(
            vectorize_review(["alpha"], vocab, table), table[vocab.index["alpha"]]
        )

    def test_all_oov_is_zero(self):
        vocab, table = self._vocab_table()
        np.testing.assert_array_equal(
            vectorize_review(["gamma", "delta"], vocab, table), np.zeros(2)
        )

    def test_two_tokens_average(self):
        vocab, table = self._vocab_table()
        np.testing.assert_array_equal(
            vectorize_review(["alpha", "beta"], vocab, table),
            (table[vocab.index["alpha"]] + table[vocab.index["beta"]]) / 2,
        )

    def test_norm_bounded_by_max_row_norm(self):
        rng = Rng(66)
        table = rng.uniform_array(40).reshape(10, 4) - 0.5
        vocab = build_vocab([[f"t{i}" for i in range(10)] * 2], min_count=1)
        toks = [f"t{i}" for i in range(10)]
        v = vectorize_review(toks, vocab, table)
        assert np.linalg.norm(v) <= max(np.linalg.norm(r) for r in table) + 1e-12


class TestSentimentLabels:
    def _one_review_batch(self, label):
        X = np.array([[0.1, 0.2]])
        [(feats, signs)] = epoch_batches(X, np.array([label]), label_slots(2), 2, Rng(1))
        return feats, signs

    def test_positive_suffix(self):
        feats, signs = self._one_review_batch(1)
        pos = signs > 0
        np.testing.assert_array_equal(feats[pos][0, -2:], [0.0, 1.0])
        assert pos.sum() == 1

    def test_negative_flips(self):
        feats, signs = self._one_review_batch(1)
        neg = signs < 0
        np.testing.assert_array_equal(feats[neg][0, -2:], [1.0, 0.0])
        np.testing.assert_array_equal(feats[neg][0, :2], [0.1, 0.2])  # still review 0

    def test_feature_part_untouched(self):
        feats = np.array([0.5, -0.25, 3.0])
        out = label_slots(3).embed(feats[None], 0)[0]
        np.testing.assert_array_equal(out[:3], feats)

    def test_batch_helpers(self):
        X = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(label_slots(2).embed(X, 0)[0], [1, 2, 1, 0])
        np.testing.assert_array_equal(label_slots(2).neutral(X)[0], [1, 2, 0, 0])

    def test_stream_balance(self):
        X = Rng(3).uniform_array(20).reshape(10, 2)
        y = np.array([0, 1] * 5)
        signs = np.concatenate([s for _, s in epoch_batches(X, y, label_slots(2), 4, Rng(4))])
        assert len(signs) == 20
        assert np.sum(signs > 0) == 10


class TestEmbeddingCache:
    def test_text_roundtrip(self, tmp_path):
        corpus, _ = make_clique_corpus(n_reviews=10)
        vocab = build_vocab(corpus, min_count=1)
        table = Rng(5).uniform_array(len(vocab) * 4).reshape(len(vocab), 4) - 0.5
        path = str(tmp_path / "emb.txt")
        save_embeddings(path, vocab, table)
        tokens, loaded = load_embeddings(path)
        assert tokens == vocab.tokens
        np.testing.assert_array_equal(loaded, table)  # repr round-trips exactly

    def test_cache_hit_and_miss(self, tmp_path):
        corpus, _ = make_clique_corpus(n_reviews=10)
        vocab = build_vocab(corpus, min_count=1)
        table = np.ones((len(vocab), 3))
        path = str(tmp_path / "emb.txt")
        fp = corpus_fingerprint(corpus, {"dim": 3})
        save_embeddings(path, vocab, table, fingerprint=fp)
        assert load_cached_embeddings(path, fp) is not None
        assert load_cached_embeddings(path, "different") is None

    @pytest.mark.parametrize("content, line, what", [
        ("3\nfoo 0.1 0.2\n", 1, "'V d' header"),
        ("3 two\nfoo 0.1 0.2\n", 1, "'V d' header"),
        ("-1 2\n", 1, "'V d' header"),
        ("3 2\nfoo 0.1 0.2\nbar 0.3 0.4\n", 4, "ends after 2 of 3 rows"),
        ("3 2\nfoo 0.1 0.2\nbar 0.3\nbaz 0.5 0.6\n", 3, "got 2 fields"),
        ("2 2\nfoo 0.1 0.2 0.3\nbar 0.3 0.4\n", 2, "got 4 fields"),
        ("2 2\nfoo 0.1 0.2\nbar 0.3 x\n", 3, "could not convert"),
        ("2 2\nfoo 0.1 0.2\nbar inf 0.4\n", 3, "non-finite"),
        ("2 2\nfoo nan 0.2\nbar 0.3 0.4\n", 2, "non-finite"),
        ("0 99999999999999999999\n", 1, "too large"),
    ])
    def test_malformed_file_is_located(self, tmp_path, content, line, what):
        path = tmp_path / "emb.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(FormatError, match=what) as info:
            load_embeddings(str(path))
        assert str(path) in str(info.value)
        assert f"line {line}:" in str(info.value)

    def test_line_that_is_not_utf8_is_located(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 2\nfoo 0.1 0.2\nb\xffr 0.3 0.4\n")
        with pytest.raises(FormatError, match="line 3: not UTF-8"):
            load_embeddings(str(path))

    @pytest.mark.parametrize("sidecar", [b"{not json", b"[1, 2]", b"\xff\xfe{"])
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nfoo 0.1 0.2\n", encoding="utf-8")
        (tmp_path / "emb.txt.meta.json").write_bytes(sidecar)
        with pytest.raises(FormatError, match="sidecar"):
            load_cached_embeddings(str(path), "fp")

    def test_fingerprint_sensitive_to_corpus_and_params(self):
        corpus, _ = make_clique_corpus(n_reviews=5)
        fp1 = corpus_fingerprint(corpus, {"dim": 3})
        fp2 = corpus_fingerprint(corpus, {"dim": 4})
        fp3 = corpus_fingerprint(corpus[:-1], {"dim": 3})
        assert len({fp1, fp2, fp3}) == 3
