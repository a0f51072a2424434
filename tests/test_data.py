import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from gdd.data import (
    DataError,
    Example,
    class_counts,
    example_to_dict,
    generate_synthetic,
    load_dataset,
    save_dataset,
)

GOOD_LINE = {
    "tokens": ["the", "staff", "was", "very", "rude"],
    "aspect_start": 1,
    "aspect_end": 2,
    "label": "negative",
    "dep_heads": [2, 5, 5, 5, 0],
    "dep_rels": ["det", "nsubj", "cop", "advmod", "root"],
}


CORPUS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _strings(ex):
    return [*ex.tokens, *ex.dep_rels, ex.label]


class TestLoadDataset:
    def test_round_trip_fixture(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [GOOD_LINE])
        examples = load_dataset(path)
        assert len(examples) == 1
        ex = examples[0]
        assert ex.tokens[ex.aspect_start:ex.aspect_end] == ["staff"]
        assert ex.label_id == 2

    def test_conflict_label_rejected(self, tmp_path):
        bad = dict(GOOD_LINE, label="conflict")
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match="label.*conflict"):
            load_dataset(path)

    def test_a_numeric_label_gets_the_label_message(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [dict(GOOD_LINE, label=1)])
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}:1: label: '1' is not one of positive/neutral/negative"

    def test_missing_field_named_with_line(self, tmp_path):
        bad = {k: v for k, v in GOOD_LINE.items() if k != "dep_rels"}
        path = write_jsonl(tmp_path / "d.jsonl", [GOOD_LINE, bad])
        with pytest.raises(DataError, match=r":2: missing field.*dep_rels"):
            load_dataset(path)

    def test_unknown_field_rejected(self, tmp_path):
        bad = dict(GOOD_LINE, extra=1)
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match="unknown field.*extra"):
            load_dataset(path)

    def test_invalid_span(self, tmp_path):
        bad = dict(GOOD_LINE, aspect_start=4, aspect_end=4)
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match="aspect span"):
            load_dataset(path)

    def test_empty_sentence_rejected(self, tmp_path):
        # the model gathers one embedding row per token, so no example may be empty
        bad = dict(GOOD_LINE, tokens=[], aspect_start=0, aspect_end=0, dep_heads=[],
                   dep_rels=[])
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match=":1: tokens: empty sentence"):
            load_dataset(path)

    def test_invalid_tree(self, tmp_path):
        bad = dict(GOOD_LINE, dep_heads=[2, 1, 5, 5, 0])
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match="dep_heads"):
            load_dataset(path)

    def test_malformed_field_value(self, tmp_path):
        bad = dict(GOOD_LINE, dep_heads=["x", 5, 5, 5, 0])
        path = write_jsonl(tmp_path / "d.jsonl", [bad])
        with pytest.raises(DataError, match=":1: malformed field"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value, message", [
        ("tokens", "abcde", 'tokens: expected a JSON array, got "abcde"'),
        ("dep_heads", "25550", 'dep_heads: expected a JSON array, got "25550"'),
        ("dep_rels", {"det": 0, "nsubj": 0, "cop": 0, "advmod": 0, "root": 0},
         r'dep_rels: expected a JSON array, got \{"det": 0, '),
    ], ids=["tokens", "dep_heads", "dep_rels"])
    def test_list_fields_must_be_arrays(self, tmp_path, field, value, message):
        """A string or an object of the right length would otherwise be read
        as its characters or its keys."""
        path = write_jsonl(tmp_path / "d.jsonl", [GOOD_LINE, dict(GOOD_LINE, **{field: value})])
        with pytest.raises(DataError, match=rf"d\.jsonl:2: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["tokens", "dep_rels"])
    def test_list_items_must_be_strings_or_numbers(self, tmp_path, field):
        """An array, an object, null or a boolean item would otherwise load
        as its Python repr (["staff"] as "['staff']", null as "None")."""
        for item, shown in [(["staff"], r'\["staff"\]'), ({"r": 1}, r'\{"r": 1\}'),
                            (None, "null"), (True, "true")]:
            items = list(GOOD_LINE[field])
            items[2] = item
            path = write_jsonl(tmp_path / "d.jsonl", [GOOD_LINE, dict(GOOD_LINE, **{field: items})])
            with pytest.raises(DataError, match=rf"d\.jsonl:2: {field}\[2\]: expected a string, "
                                                rf"got {shown}$"):
                load_dataset(path)

    def test_numbers_in_string_lists_load_as_their_text(self, tmp_path):
        line = dict(GOOD_LINE, tokens=["the", 7, 2.5] + GOOD_LINE["tokens"][3:],
                    dep_rels=[1] + GOOD_LINE["dep_rels"][1:])
        ex, = load_dataset(write_jsonl(tmp_path / "d.jsonl", [line]))
        assert ex.tokens[:3] == ["the", "7", "2.5"] and ex.dep_rels[0] == "1"

    @pytest.mark.parametrize("field, value, message", [
        ("aspect_start", 1.9, "aspect_start: 1.9 is not an integer"),
        ("aspect_start", True, "aspect_start: true is not an integer"),
        ("aspect_end", False, "aspect_end: false is not an integer"),
        ("dep_heads", [2, 4.7, 5, 5, 0], r"dep_heads\[1\]: 4.7 is not an integer"),
        ("dep_heads", [2, 5, 5, 5, False], r"dep_heads\[4\]: false is not an integer"),
        ("dep_heads", [2, 5, 5, 5, float("inf")], r"dep_heads\[4\]: Infinity is not an integer"),
    ])
    def test_booleans_and_fractions_are_not_indices(self, tmp_path, field, value, message):
        path = write_jsonl(tmp_path / "d.jsonl", [GOOD_LINE, dict(GOOD_LINE, **{field: value})])
        with pytest.raises(DataError, match=rf"d\.jsonl:2: {message}$"):
            load_dataset(path)

    def test_whole_floats_are_indices(self, tmp_path):
        line = dict(GOOD_LINE, aspect_start=1.0, dep_heads=[2, 5, 5.0, 5, 0])
        ex, = load_dataset(write_jsonl(tmp_path / "d.jsonl", [line]))
        assert (ex.aspect_start, ex.dep_heads) == (1, [2, 5, 5, 5, 0])
        assert type(ex.aspect_start) is int and all(type(h) is int for h in ex.dep_heads)

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(GOOD_LINE) + "\n{broken\n")
        with pytest.raises(DataError, match=":2: invalid JSON"):
            load_dataset(path)

    def test_save_load_round_trip(self, tmp_path):
        examples = generate_synthetic(seed=4, count=9)
        path = tmp_path / "d.jsonl"
        save_dataset(path, examples)
        loaded = load_dataset(path)
        assert [example_to_dict(e) for e in loaded] == [example_to_dict(e) for e in examples]


class TestInterning:
    """Each distinct token, relation and label string is one object, shared
    by every record and every loaded file; json.loads alone makes a new one
    per occurrence."""

    def test_equal_strings_are_one_object_across_records_and_files(self, tmp_path):
        first = load_dataset(write_jsonl(tmp_path / "a.jsonl", [GOOD_LINE, GOOD_LINE]))
        second = load_dataset(write_jsonl(tmp_path / "b.jsonl", [GOOD_LINE]))
        a, b, c = (_strings(ex) for ex in first + second)
        assert all(x is y is z for x, y, z in zip(a, b, c))

    def test_converted_items_are_interned_too(self, tmp_path):
        as_text = dict(GOOD_LINE, tokens=["the", "staff", "was", "1234", "rude"])
        as_number = dict(GOOD_LINE, tokens=["the", "staff", "was", 1234, "rude"])
        typed, converted = load_dataset(write_jsonl(tmp_path / "d.jsonl", [as_text, as_number]))
        assert converted.tokens[3] == "1234"
        assert all(x is y for x, y in zip(_strings(typed), _strings(converted)))

    def test_a_loaded_semeval_shaped_record_keeps_under_2000_bytes(self, tmp_path):
        spec = importlib.util.spec_from_file_location("_perfbench_corpus", CORPUS_PY)
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        path = tmp_path / "semeval.jsonl"
        corpus.write_jsonl(path, corpus.semeval_records(4, 3000))
        tracemalloc.start()
        try:
            examples = load_dataset(path)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(examples) == 3000
        assert kept / len(examples) <= 2000


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_synthetic(seed=7, count=12)
        b = generate_synthetic(seed=7, count=12)
        assert [example_to_dict(x) for x in a] == [example_to_dict(x) for x in b]

    def test_balanced_labels(self):
        counts = class_counts(generate_synthetic(seed=7, count=30))
        assert counts == {"positive": 10, "neutral": 10, "negative": 10}

    def test_trees_valid_and_spans_in_range(self):
        for ex in generate_synthetic(seed=8, count=40):
            ex.validate()

    def test_template_variety(self):
        lengths = {len(ex.tokens) for ex in generate_synthetic(seed=9, count=40)}
        assert len(lengths) >= 3  # near, far, compound, contrast templates all appear

    def test_seeds_differ(self):
        a = generate_synthetic(seed=1, count=10)
        b = generate_synthetic(seed=2, count=10)
        assert [example_to_dict(x) for x in a] != [example_to_dict(x) for x in b]


def test_example_validalign_aspect_span_inclusive():
    ex = Example(**{k: v for k, v in GOOD_LINE.items()})
    assert ex.aspect_span_inclusive == (1, 1)
