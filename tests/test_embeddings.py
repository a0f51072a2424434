import json

import numpy as np
import pytest

from gdd import autodiff as ad
from gdd.data import DataError
from gdd.dep_graph import Awig
from gdd.embeddings import (
    PAD,
    UNK,
    TagVocab,
    Vocab,
    composed_tag_ids,
    load_precomputed,
    token_ids,
)
from gdd.model import Model, ModelConfig, Prepared
from gdd.numeric import Rng, init_uniform

from oracles import sum_


@pytest.fixture
def vocab():
    return Vocab.from_corpus([["great", "food"], ["bad", "food"]])


@pytest.fixture
def tag_vocab():
    return TagVocab.from_corpus([["nsubj", "amod", "det"]])


def test_vocab_reserved_ids(vocab):
    assert vocab.ids(["<pad>", "<unk>", "never-seen"]) == [PAD, UNK, UNK]


def test_vocab_bijective(vocab):
    words = ["great", "food", "bad"]
    assert [vocab.to_list()[i] for i in vocab.ids(words)] == words


def test_vocab_roundtrip(vocab):
    clone = Vocab.from_list(vocab.to_list())
    assert clone.to_list() == vocab.to_list()
    assert clone.ids(["food"]) == vocab.ids(["food"])


def test_tag_vocab_unseen_maps_to_unk(tag_vocab):
    nsubj, xcomp = tag_vocab.ids(["nsubj", "xcomp"])
    assert nsubj > UNK
    assert xcomp == UNK


def token_rows(tokens, vocab, weights):
    """The rows the model's sentence matrix gathers for `tokens`."""
    return ad.gather_rows(ad.Var(weights), token_ids(tokens, vocab)).value


class TestEmbedTokens:
    def test_single_token_shape(self, vocab):
        table = init_uniform(Rng(0), (len(vocab), 6))
        out = token_rows(["food"], vocab, table)
        assert out.shape == (1, 6)

    def test_identical_tokens_identical_rows(self, vocab):
        table = init_uniform(Rng(0), (len(vocab), 6))
        out = token_rows(["food", "food"], vocab, table)
        assert np.array_equal(out[0], out[1])

    def test_oov_gets_unk_row(self, vocab):
        table = init_uniform(Rng(0), (len(vocab), 6))
        out = token_rows(["zzz"], vocab, table)
        assert np.array_equal(out[0], table[UNK])


def tag_model(vocab, tag_vocab, d_tag=4, kappa_max=3):
    config = ModelConfig(d_model=8, d_tag=d_tag, d_head=4, d_hid=4, U=1, V=1, L=1,
                         kappa_max=kappa_max)
    return Model.build(config, vocab, tag_vocab)


def edge_rows(model, paths):
    """Model._edge_matrix over one edge per composed-tag path."""
    slots, hops = composed_tag_ids(paths, model.tag_vocab, model.config.kappa_max)
    m = len(paths)
    prep = Prepared(example=None, token_ids=np.zeros(m + 1, dtype=np.intp), span=(0, 0),
                    gold=0, awig=Awig([0], list(range(1, m + 1)), [tuple(p) for p in paths]),
                    word_token_idx=np.arange(1, m + 1),
                    edge_slot_ids=slots, edge_hop_idx=hops)
    leaves = {name: ad.Var(t) for name, t in model.params.items()}
    return model._edge_matrix(prep, leaves).value


class TestComposedTag:
    def test_single_hop_padding(self, vocab, tag_vocab):
        model = tag_model(vocab, tag_vocab)
        tags, hops = model.params.get("embed.tag"), model.params.get("embed.hop")
        out = edge_rows(model, [["nsubj"]])[0]
        nsubj, = tag_vocab.ids(["nsubj"])
        expected = np.concatenate([
            tags[nsubj],
            tags[PAD],
            tags[PAD],
            hops[0],
        ])
        assert np.array_equal(out, expected)

    def test_two_hop_padding(self, vocab, tag_vocab):
        model = tag_model(vocab, tag_vocab)
        tags, hops = model.params.get("embed.tag"), model.params.get("embed.hop")
        out = edge_rows(model, [["amod", "nsubj"]])[0]
        amod, nsubj = tag_vocab.ids(["amod", "nsubj"])
        expected = np.concatenate([
            tags[amod],
            tags[nsubj],
            tags[PAD],
            hops[1],
        ])
        assert np.array_equal(out, expected)

    def test_identical_paths_identical_vectors(self, vocab, tag_vocab):
        a, b = edge_rows(tag_model(vocab, tag_vocab), [["det", "amod"], ["det", "amod"]])
        assert np.array_equal(a, b)

    def test_width_constant_across_paths(self, vocab, tag_vocab):
        rows = edge_rows(tag_model(vocab, tag_vocab),
                         [["det"], ["det", "amod"], ["det", "amod", "nsubj"]])
        assert rows.shape == (3, (3 + 1) * 4)

    def test_too_many_hops(self, tag_vocab):
        with pytest.raises(ValueError, match="kappa_max"):
            composed_tag_ids([["a", "b", "c", "d"]], tag_vocab, 3)

    def test_zero_hops(self, tag_vocab):
        with pytest.raises(ValueError, match="at least one hop"):
            composed_tag_ids([[]], tag_vocab, 3)

    @pytest.mark.parametrize("paths", [[], [["amod"], ["det", "xcomp", "nsubj"]]])
    def test_id_arrays_are_contiguous_intp(self, tag_vocab, paths):
        slots, hops = composed_tag_ids(paths, tag_vocab, 3)
        assert slots.shape == (len(paths), 3) and hops.shape == (len(paths),)
        for a in (slots, hops):
            assert a.dtype == np.intp and a.flags.c_contiguous
        if paths:
            amod, det, nsubj = tag_vocab.ids(["amod", "det", "nsubj"])
            assert slots.tolist() == [[amod, PAD, PAD], [det, UNK, nsubj]]
            assert hops.tolist() == [0, 2]


class TestPrecomputed:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        rec = {"tokens": ["the", "food"], "vectors": [[1.0, 2.0], [3.0, 4.0]]}
        path.write_text(json.dumps(rec) + "\n")
        table = load_precomputed(path)
        assert np.array_equal(table[("the", "food")], np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"tokens": ["a", "b"], "vectors": [[1.0]]}) + "\n")
        with pytest.raises(ValueError, match="1 vectors for 2 tokens"):
            load_precomputed(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" * 400],
                             ids=["NaN", "Infinity", "-Infinity", "int-beyond-float64"])
    def test_non_finite_vectors_rejected(self, tmp_path, value):
        path = tmp_path / "vecs.jsonl"
        good = json.dumps({"tokens": ["a"], "vectors": [[1.0, 2.0]]})
        path.write_text(f'{good}\n{{"tokens": ["b"], "vectors": [[1.0, {value}]]}}\n')
        with pytest.raises(ValueError, match=r"vecs\.jsonl:2: vectors must be finite"):
            load_precomputed(path)

    @pytest.mark.parametrize("vectors", ["[[true, false]]", '[["1.5", 2]]', "[[true, 1]]"],
                             ids=["booleans", "numeric-string", "mixed-row"])
    def test_vector_entries_must_be_json_numbers(self, tmp_path, vectors):
        """np.asarray would read true as 1.0 and "1.5" as 1.5."""
        path = tmp_path / "vecs.jsonl"
        good = json.dumps({"tokens": ["a"], "vectors": [[1.0, 2.0]]})
        path.write_text(f'{good}\n{{"tokens": ["b"], "vectors": {vectors}}}\n')
        with pytest.raises(DataError) as info:
            load_precomputed(path)
        assert str(info.value) == f"{path}:2: vectors must be a 2-D list of numbers"

    def test_a_repeated_sentence_with_other_vectors_names_both_lines(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        records = [{"tokens": ["c"], "vectors": [[1, 2]]},
                   {"tokens": ["d"], "vectors": [[3, 4]]},
                   {"tokens": ["c"], "vectors": [[9, 9]]}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DataError) as info:
            load_precomputed(path)
        assert str(info.value) == f"{path}:3: sentence repeats line 1 with other vectors"

    def test_a_repeated_sentence_with_equal_vectors_loads(self, tmp_path):
        """A converter may write one record per aspect, so a sentence with two
        aspects can arrive twice."""
        path = tmp_path / "vecs.jsonl"
        records = [{"tokens": ["c"], "vectors": [[1, 2]]},
                   {"tokens": ["c"], "vectors": [[1.0, 2.0]]}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        table = load_precomputed(path)
        assert list(table) == [("c",)]
        assert table[("c",)].tolist() == [[1.0, 2.0]]

    def test_bad_keys(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"tokens": ["a"]}) + "\n")
        with pytest.raises(ValueError, match="expected keys"):
            load_precomputed(path)


def test_lookup_gradient_is_gather_sparse():
    # finite differences on rows a loss never touches must come out zero
    from gdd.numeric import finite_diff_grad

    weights = Rng(44).uniform((5, 3), -1, 1)
    probe = Rng(45).uniform((3,), -1, 1)
    touched = [1, 3, 3]

    def f(w):
        rows = ad.gather_rows(ad.Var(w), touched)
        return float(ad.matmul(sum_(rows, axis=0), ad.Var(probe)).value)

    fd = finite_diff_grad(f, weights)
    leaf = ad.Var(weights)
    out = ad.matmul(sum_(ad.gather_rows(leaf, touched), axis=0), ad.Var(probe))
    ad.backward(out)
    for row in range(5):
        if row in touched:
            assert np.max(np.abs(fd[row] - leaf.grad[row])) < 1e-8
        else:
            assert np.max(np.abs(fd[row])) < 1e-9
            assert np.array_equal(leaf.grad[row], np.zeros(3))
