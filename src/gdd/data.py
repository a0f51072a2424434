"""Dataset records and ingestion.

Examples arrive as JSON Lines, one aspect instance per line (a sentence with
k aspects contributes k lines). Aspect spans use [start, end) token indices.
A seeded synthetic generator ships in-tree so local-vs-global behavior can be
exercised without any external corpus.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass

from .dep_graph import DepTree, ParseError
from .numeric import Rng

LABELS = ("positive", "neutral", "negative")
LABEL_TO_ID = {name: i for i, name in enumerate(LABELS)}

REQUIRED_KEYS = {"tokens", "aspect_start", "aspect_end", "label", "dep_heads", "dep_rels"}


class DataError(ValueError):
    """A dataset record that violates the schema."""


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path) -> str:
    """A UTF-8 text file's contents, its line ends read as "\n" (as text-mode
    open() reads them). Bytes that are not UTF-8 raise DataError naming the
    file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _universal_newlines(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        lineno = _universal_newlines(raw[:e.start].decode("utf-8")).count("\n") + 1
        raise DataError(f"{path}:{lineno}: not UTF-8 text (byte 0x{raw[e.start]:02x})") from None


@dataclass
class Example:
    """One (sentence, aspect) training or evaluation instance."""

    tokens: list[str]
    aspect_start: int  # inclusive
    aspect_end: int    # exclusive
    label: str
    dep_heads: list[int]  # 1-based, 0 = root
    dep_rels: list[str]

    @property
    def label_id(self) -> int:
        return LABEL_TO_ID[self.label]

    @property
    def aspect_span_inclusive(self) -> tuple[int, int]:
        return self.aspect_start, self.aspect_end - 1

    @functools.cached_property
    def tree(self) -> DepTree:
        """The dependency tree, built and validated (ParseError) on first use
        and then kept: validate() and Model.prepare read the same one. It
        shares the example's lists."""
        return DepTree(self.tokens, self.dep_heads, self.dep_rels)

    def validate(self) -> None:
        n = len(self.tokens)
        if n == 0:
            raise DataError("tokens: empty sentence")
        if not (len(self.dep_heads) == len(self.dep_rels) == n):
            raise DataError(
                f"dep_heads/dep_rels: expected {n} entries, got "
                f"{len(self.dep_heads)}/{len(self.dep_rels)}")
        if not (0 <= self.aspect_start < self.aspect_end <= n):
            raise DataError(
                f"aspect span: need 0 <= start < end <= {n}, "
                f"got [{self.aspect_start}, {self.aspect_end})")
        if self.label not in LABELS:
            raise DataError(f"label: {self.label!r} is not one of {'/'.join(LABELS)}")
        try:
            self.tree  # validates the tree it builds
        except ParseError as e:
            raise DataError(f"dep_heads: {e}") from None


def as_index(value, field: str) -> int:
    """value as an int. A boolean or a fractional number is rejected, since
    int() would read true as 1 and 4.7 as 4."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise DataError(f"{field}: {json.dumps(value)} is not an integer")
    return int(value)


def _list_of(items, typ) -> bool:
    """Whether items is a list holding only objects of exactly type typ."""
    return type(items) is list and set(map(type, items)) <= {typ}


def _array(items, field: str) -> list:
    """items, which must be a JSON array: a string or an object would
    otherwise be read as its characters or its keys."""
    if type(items) is not list:
        raise DataError(f"{field}: expected a JSON array, got {json.dumps(items)[:40]}")
    return items


def _text(item, field: str) -> str:
    """item, a string or a number, as a string: an array, an object, null or
    a boolean would otherwise load as its Python repr."""
    if isinstance(item, bool) or not isinstance(item, (str, int, float)):
        raise DataError(f"{field}: expected a string, got {json.dumps(item)[:40]}")
    return str(item)


def _interned(items, field: str) -> list[str]:
    """items, a JSON array of strings (or numbers, read as their text), with
    every string interned: in place when items holds only strings already,
    so the list is not copied."""
    if _list_of(items, str):
        items[:] = map(sys.intern, items)
        return items
    return [sys.intern(_text(t, f"{field}[{i}]")) for i, t in enumerate(_array(items, field))]


def example_from_dict(rec: dict) -> Example:
    """A validated Example from one JSON record.

    Lists that already hold the right types are used as they are, not
    copied; other values are converted (str() for tokens, rels and the
    label, int() for indices) as far as the conversion loses nothing.
    Every token, relation and label string is interned (sys.intern), in
    place in a list used as it is, so each distinct string is one object
    shared by every record, every loaded file and the vocabularies built
    from them.
    """
    if not isinstance(rec, dict):
        raise DataError("record is not a JSON object")
    if rec.keys() != REQUIRED_KEYS:
        keys = set(rec)
        missing = REQUIRED_KEYS - keys
        extra = keys - REQUIRED_KEYS
        if missing:
            raise DataError(f"missing field(s): {', '.join(sorted(missing))}")
        raise DataError(f"unknown field(s): {', '.join(sorted(extra))}")
    tokens, label = rec["tokens"], rec["label"]
    heads, rels = rec["dep_heads"], rec["dep_rels"]
    try:
        ex = Example(
            tokens=_interned(tokens, "tokens"),
            aspect_start=as_index(rec["aspect_start"], "aspect_start"),
            aspect_end=as_index(rec["aspect_end"], "aspect_end"),
            label=sys.intern(label if type(label) is str else str(label)),
            dep_heads=(heads if _list_of(heads, int)
                       else [as_index(h, f"dep_heads[{i}]")
                             for i, h in enumerate(_array(heads, "dep_heads"))]),
            dep_rels=_interned(rels, "dep_rels"),
        )
    except DataError:
        raise
    except (TypeError, ValueError) as e:
        raise DataError(f"malformed field value: {e}") from None
    ex.validate()
    return ex


def example_to_dict(ex: Example) -> dict:
    return {
        "tokens": ex.tokens,
        "aspect_start": ex.aspect_start,
        "aspect_end": ex.aspect_end,
        "label": ex.label,
        "dep_heads": ex.dep_heads,
        "dep_rels": ex.dep_rels,
    }


def read_jsonl(path, parse) -> list[tuple[int, object]]:
    """(line number, parse(record)) for each line of the JSON Lines file at
    path that is not blank, the file read once (read_text). Invalid JSON (or
    JSON nested too deep to read), or a DataError raised by parse, becomes
    DataError "<path>:<line>: ..."."""
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append((lineno, parse(json.loads(line))))
        except (json.JSONDecodeError, RecursionError) as e:
            raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from None
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    return out


def load_numbered(path) -> list[tuple[int, Example]]:
    """Read and validate a JSONL dataset into (line number, Example) pairs,
    one per line that is not blank; errors carry line numbers."""
    return read_jsonl(path, example_from_dict)


def load_dataset(path) -> list[Example]:
    """Read and validate a JSONL dataset; errors carry line numbers."""
    return [ex for _, ex in load_numbered(path)]


def save_dataset(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_dict(ex)) + "\n")


def class_counts(examples) -> dict[str, int]:
    counts = {name: 0 for name in LABELS}
    for ex in examples:
        counts[ex.label] += 1
    return counts


# ---------------------------------------------------------------------------
# Synthetic data: templated sentences with opinion words planted near or far
# from the aspect, so both the masked local path and the graph path matter.
# ---------------------------------------------------------------------------

ASPECTS = ["food", "service", "battery", "screen", "staff", "pizza", "menu", "keyboard"]
OPINIONS = {
    "positive": ["great", "excellent", "delicious", "wonderful"],
    "neutral": ["okay", "average", "ordinary", "acceptable"],
    "negative": ["terrible", "awful", "dreadful", "disappointing"],
}


def _near_template(aspect: str, opinion: str, label: str) -> Example:
    # "the ASP is OPIN"
    return Example(
        tokens=["the", aspect, "is", opinion],
        aspect_start=1, aspect_end=2, label=label,
        dep_heads=[2, 4, 4, 0],
        dep_rels=["det", "nsubj", "cop", "root"],
    )


def _far_template(aspect: str, opinion: str, label: str) -> Example:
    # "the ASP that we tried yesterday was OPIN"
    return Example(
        tokens=["the", aspect, "that", "we", "tried", "yesterday", "was", opinion],
        aspect_start=1, aspect_end=2, label=label,
        dep_heads=[2, 8, 5, 5, 2, 5, 8, 0],
        dep_rels=["det", "nsubj", "obj", "nsubj", "acl", "advmod", "cop", "root"],
    )


def _compound_template(aspect: str, opinion: str, label: str) -> Example:
    # "the ASP life is OPIN" with a two-token aspect span
    return Example(
        tokens=["the", aspect, "life", "is", opinion],
        aspect_start=1, aspect_end=3, label=label,
        dep_heads=[3, 3, 5, 5, 0],
        dep_rels=["det", "compound", "nsubj", "cop", "root"],
    )


def _contrast_template(aspect: str, opinion: str, label: str, rng: Rng) -> Example:
    # "the ASP was OPIN but the place was OTHER" -- a distractor clause
    other_label = rng.choice([l for l in LABELS if l != label])
    other = rng.choice(OPINIONS[other_label])
    return Example(
        tokens=["the", aspect, "was", opinion, "but", "the", "place", "was", other],
        aspect_start=1, aspect_end=2, label=label,
        dep_heads=[2, 4, 4, 0, 9, 7, 9, 9, 4],
        dep_rels=["det", "nsubj", "cop", "root", "cc", "det", "nsubj", "cop", "conj"],
    )


def generate_synthetic(seed: int, count: int) -> list[Example]:
    """Deterministic templated dataset with balanced labels."""
    rng = Rng(seed)
    out = []
    for i in range(count):
        label = LABELS[i % len(LABELS)]
        aspect = rng.choice(ASPECTS)
        opinion = rng.choice(OPINIONS[label])
        template = rng.integers(0, 4)
        if template == 0:
            ex = _near_template(aspect, opinion, label)
        elif template == 1:
            ex = _far_template(aspect, opinion, label)
        elif template == 2:
            ex = _compound_template(aspect, opinion, label)
        else:
            ex = _contrast_template(aspect, opinion, label, rng)
        out.append(ex)
    return out
