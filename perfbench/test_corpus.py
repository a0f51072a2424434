"""The SemEval-shaped corpus: seeded, valid for gdd, and of the stated shape."""

import statistics

import pytest

from gdd.data import class_counts, example_from_dict, load_dataset
from gdd.dep_graph import DepTree

import corpus


@pytest.fixture(scope="module")
def records():
    return corpus.semeval_records(seed=11, count=3000)


def test_same_seed_same_records_and_other_seed_differs():
    assert corpus.semeval_records(5, 50) == corpus.semeval_records(5, 50)
    assert corpus.semeval_records(5, 50) != corpus.semeval_records(6, 50)


def test_every_record_passes_gdd_validation_and_roundtrips_through_jsonl(records, tmp_path):
    examples = [example_from_dict(rec) for rec in records]
    path = tmp_path / "corpus.jsonl"
    corpus.write_jsonl(path, records)
    assert load_dataset(path) == examples


def test_trees_are_valid_over_ud_relations(records):
    for rec in records:
        DepTree(rec["tokens"], rec["dep_heads"], rec["dep_rels"])  # raises on a bad tree
        assert set(rec["dep_rels"]) <= set(corpus.UD_RELATIONS)
        roots = [i for i, h in enumerate(rec["dep_heads"]) if h == 0]
        assert [rec["dep_rels"][i] for i in roots] == ["root"]
        assert rec["dep_rels"].count("root") == 1
    assert len(corpus.UD_RELATIONS) == len(set(corpus.UD_RELATIONS)) == 37


def test_about_five_thousand_types(records):
    types = {tok for rec in records for tok in rec["tokens"]}
    assert 4500 <= len(types) <= 5800


def test_length_distribution(records):
    lengths = [len(rec["tokens"]) for rec in records]
    assert min(lengths) >= 5 and max(lengths) <= 80
    assert 16 <= statistics.median(lengths) <= 20
    assert 32 <= statistics.quantiles(lengths, n=10)[-1] <= 40  # the assumed lognormal tail


def test_aspect_length_shares_follow_the_assumed_mix(records):
    shares = [sum(rec["aspect_end"] - rec["aspect_start"] == k for rec in records) / len(records)
              for k in (1, 2, 3)]
    assert shares == pytest.approx(corpus.ASPECT_LEN_P, abs=0.03)


def test_aspects_labels_and_planted_opinions(records):
    counts = class_counts(example_from_dict(rec) for rec in records)
    assert max(counts.values()) - min(counts.values()) <= 1
    for rec in records:
        start, end = rec["aspect_start"], rec["aspect_end"]
        assert 1 <= end - start <= 3
        near = range(max(0, start - 3), min(len(rec["tokens"]), end + 3))
        assert any(rec["tokens"][i] in corpus.OPINIONS[rec["label"]]
                   for i in near if not start <= i < end)


def test_lexicon_words_are_distinct_and_not_opinion_words():
    words = corpus.lexicon(20000)
    assert len(set(words)) == len(words)
    opinions = {w for ws in corpus.OPINIONS.values() for w in ws}
    assert not opinions & set(words)
