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
from gdd.model import Model, ModelConfig, ModelParams, Prepared
from gdd.numeric import Rng, init_uniform

from oracles import reshape, sum_


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


JOINT = ("embed.tag", "embed.hop")


def edge_prep(model, paths):
    """A Prepared with one graph word per composed-tag path."""
    m = len(paths)
    return Prepared(example=None, token_ids=np.zeros(m + 1, dtype=np.intp), span=(0, 0),
                    gold=0, awig=Awig([0], list(range(1, m + 1)), [tuple(p) for p in paths]),
                    word_token_idx=np.arange(1, m + 1),
                    edge_tag_ids=composed_tag_ids(paths, model.tag_vocab, model.config.kappa_max,
                                                    len(model.tag_vocab)))


def edge_rows(model, paths):
    """Model._edge_matrix over one edge per composed-tag path."""
    return model._edge_matrix(edge_prep(model, paths), model.params.table(JOINT)).value


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
            composed_tag_ids([["a", "b", "c", "d"]], tag_vocab, 3, len(tag_vocab))

    def test_zero_hops(self, tag_vocab):
        with pytest.raises(ValueError, match="at least one hop"):
            composed_tag_ids([[]], tag_vocab, 3, len(tag_vocab))

    @pytest.mark.parametrize("paths", [[], [["amod"], ["det", "xcomp", "nsubj"]]])
    def test_id_arrays_are_contiguous_intp(self, tag_vocab, paths):
        ids = composed_tag_ids(paths, tag_vocab, 3, len(tag_vocab))
        assert ids.shape == (len(paths), 3 + 1)
        assert ids.dtype == np.intp and ids.flags.c_contiguous
        if paths:
            amod, det, nsubj = tag_vocab.ids(["amod", "det", "nsubj"])
            assert ids[:, :3].tolist() == [[amod, PAD, PAD], [det, UNK, nsubj]]
            assert (ids[:, 3] - len(tag_vocab)).tolist() == [0, 2]  # hop-table rows
            assert composed_tag_ids(paths, tag_vocab, 3, 50)[:, 3].tolist() == [50, 52]


class TestJointTable:
    def test_views_embed_tag_then_embed_hop(self, vocab, tag_vocab):
        params = tag_model(vocab, tag_vocab).params
        params.grad[:] = np.arange(params.grad.size)
        table, leaves, n = params.table(JOINT), params.leaves(), len(tag_vocab)
        assert np.shares_memory(table.value, params.flat)
        assert np.shares_memory(table.grad, params.grad)
        for got, name in ((slice(None, n), "embed.tag"), (slice(n, None), "embed.hop")):
            assert np.array_equal(table.value[got], leaves[name].value)
            assert np.array_equal(table.grad[got], leaves[name].grad)
        assert table.value.shape == (n + 3, 4)

    def test_refuses_tensors_that_are_not_one_table(self):
        params = ModelParams([("a", (2, 4)), ("b", (1, 4)), ("c", (3, 4)), ("d", (2, 6))])
        assert params.table(("a", "b", "c")).value.shape == (6, 4)
        with pytest.raises(ValueError, match="a gap"):
            params.table(("a", "c"))  # b sits between them
        with pytest.raises(ValueError, match="unequal rows"):
            params.table(("c", "d"))  # 24 entries would still reshape to rows of 4

    def test_edge_rows_and_gradient_equal_the_per_table_gathers_bit_for_bit(
            self, vocab, tag_vocab):
        """Two examples whose paths repeat a tag, within a path and across
        them: one gather over the joint table gives the edge rows and the
        gradients, reduced as one Leaf's several contributions, that a gather
        from each table, the two laid side by side, gives."""
        model = tag_model(vocab, tag_vocab)
        n, width = len(tag_vocab), 3 * 4
        separate = [ad.Leaf(model.params.get(name), np.zeros_like(model.params.get(name)))
                    for name in JOINT]
        rng = Rng(3)
        joint_terms, separate_terms = [], []
        for paths in ([["det", "amod"], ["amod", "amod", "det"], ["det"]],
                      [["amod"], ["det", "det"]]):
            prep = edge_prep(model, paths)
            m, ids = len(paths), prep.edge_tag_ids
            E = model._edge_matrix(prep, model.params.table(JOINT))
            per_table = ad.concat([reshape(ad.gather_rows(separate[0], ids[:, :3]), (m, width)),
                                   ad.gather_rows(separate[1], ids[:, 3] - n)], axis=1)
            assert np.array_equal(E.value, per_table.value)
            g = ad.Var(rng.normal(E.shape))
            joint_terms.append(sum_(ad.mul(E, g)))
            separate_terms.append(sum_(ad.mul(per_table, g)))
        model.params.grad.fill(0.0)
        for terms in (joint_terms, separate_terms):
            ad.backward(terms[0] + terms[1])
        leaves = model.params.leaves()
        for name, leaf in zip(JOINT, separate):
            assert np.array_equal(leaves[name].grad, leaf.grad), name

    def test_forward_builds_one_joint_leaf_and_gathers_it_once(self, vocab, tag_vocab,
                                                               monkeypatch):
        model = tag_model(vocab, tag_vocab)
        calls = []
        edge_matrix = Model._edge_matrix

        def recording(self, prep, table):
            calls.append((table, edge_matrix(self, prep, table)))
            return calls[-1][1]

        monkeypatch.setattr(Model, "_edge_matrix", recording)
        for paths in ([["det", "amod"]], [["nsubj"], ["amod", "det"]]):
            model.forward_var(edge_prep(model, paths), model.params.leaves())
        (first, E0), (second, E1) = calls
        assert first is second and isinstance(first, ad.Leaf)
        assert np.shares_memory(first.value, model.params.flat)
        assert np.shares_memory(first.grad, model.params.grad)
        assert E0._parents == (first,) and E1._parents == (first,)


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
