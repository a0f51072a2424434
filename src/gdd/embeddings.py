"""Vocabularies and id encodings for tokens, dependency tags and hop counts.

A graph edge's composed tag arrives as its path of relation labels; its hop
count is the path's length, so composed_tag_ids reads both from the path,
as rows of one joint table: the tag table's rows, then the hop table's.

The lookup tables themselves are model parameters (`embed.token`,
`embed.tag`, `embed.hop`) that `Model._sentence_matrix` and
`Model._edge_matrix` gather on the tape. The trainable token table stands
in for a heavyweight contextual encoder; users who already have frozen
per-token vectors can inject them through the JSONL loader below instead.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .data import DataError, read_jsonl
from .numeric import Tensor

PAD = 0
UNK = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_TAG_TOKEN = "<pad-tag>"
UNK_TAG_TOKEN = "<unk-tag>"


class Vocab:
    """Token <-> id map with reserved PAD=0 and UNK=1 slots.

    Out-of-vocabulary lookups fall back to UNK; ids are bijective over the
    non-reserved entries.
    """

    pad_token = PAD_TOKEN
    unk_token = UNK_TOKEN

    def __init__(self):
        self._id_to_token = [self.pad_token, self.unk_token]
        self._token_to_id = {self.pad_token: PAD, self.unk_token: UNK}

    @classmethod
    def from_corpus(cls, sentences: Iterable[Sequence[str]]) -> "Vocab":
        """Ids in order of first occurrence, after the reserved ones."""
        v = cls()
        ids, first = v._token_to_id, len(v._id_to_token)
        new = [t for t in dict.fromkeys(chain.from_iterable(sentences)) if t not in ids]
        ids.update(zip(new, range(first, first + len(new))))
        v._id_to_token += new
        return v

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """The id of each token (UNK for unseen ones), in one pass at C speed."""
        return list(map(self._token_to_id.get, tokens, repeat(UNK)))

    def __len__(self) -> int:
        return len(self._id_to_token)

    def to_list(self) -> list[str]:
        return list(self._id_to_token)

    @classmethod
    def from_list(cls, tokens: list[str]) -> "Vocab":
        """The vocab whose id i is tokens[i], as to_list() gives it. The list
        must start with the two reserved tokens and list no token twice;
        ValueError otherwise."""
        v = cls.__new__(cls)
        v._id_to_token = list(tokens)
        v._token_to_id = {t: i for i, t in enumerate(tokens)}
        if v._id_to_token[:2] != [cls.pad_token, cls.unk_token]:
            raise ValueError(f"must start with the reserved tokens {cls.pad_token!r}, "
                             f"{cls.unk_token!r}")
        if len(v._token_to_id) != len(v._id_to_token):
            twice = next(t for i, t in enumerate(tokens) if v._token_to_id[t] != i)
            raise ValueError(f"token {twice!r} listed twice")
        return v


class TagVocab(Vocab):
    """Dependency-relation-tag vocabulary: PAD_TAG=0, UNK_TAG=1, then tags.

    Unseen test-time tags map to UNK_TAG. Hop counts are not in it: a path
    of k labels (k hops) reads row k-1 of the hop table, which follows the
    tag table's rows in the joint table that composed_tag_ids indexes.
    """

    pad_token = PAD_TAG_TOKEN
    unk_token = UNK_TAG_TOKEN


def token_ids(tokens: Sequence[str], vocab: Vocab) -> np.ndarray:
    """The vocab ids of tokens (UNK for unseen ones), as an intp array."""
    return np.array(vocab.ids(tokens), dtype=np.intp)


def composed_tag_ids(paths: Iterable[Sequence[str]], tag_vocab: TagVocab,
                     kappa_max: int, hop_base: int) -> np.ndarray:
    """Resolve one example's edge paths to their composed tags' fixed-width
    encoding as rows of a joint table: the tag table's rows, then the hop
    table's kappa_max rows from row hop_base on.

    Returns one C-contiguous intp array of m rows of kappa_max + 1 joint-table
    rows: the path's tag ids, right-padded with PAD_TAG, then its hop row,
    hop_base + k - 1 for a path of k labels (k hops). Each path must
    hold 1..kappa_max labels; the graph builder drops deeper nodes before we
    get here. All m rows' tags, the padding as the vocabulary's own pad token
    (at id PAD), are looked up in one pass.
    """
    # each path's tags padded one slot past kappa_max: the slot of its hop row
    pads = [[tag_vocab.pad_token] * (kappa_max + 1 - h) for h in range(kappa_max + 1)]
    names: list[str] = []
    hop_rows: list[int] = []
    for path in paths:
        hops = len(path)
        if not 1 <= hops <= kappa_max:
            raise ValueError("composed tag: needs at least one hop" if hops < 1 else
                             f"composed tag: {hops} hops exceeds kappa_max={kappa_max}")
        names += path
        names += pads[hops]
        hop_rows.append(hop_base + hops - 1)
    ids = tag_vocab.ids(names)
    ids[kappa_max::kappa_max + 1] = hop_rows
    edge_ids = np.array(ids, dtype=np.intp)
    edge_ids.shape = (-1, kappa_max + 1)  # in place: a reshaped view would keep a second array
    return edge_ids


def _vector_record(rec) -> tuple[tuple[str, ...], Tensor]:
    """One frozen-vector record's (tokens, vectors); DataError if malformed.
    Vector entries must be JSON numbers, since np.asarray would read true as
    1.0 and "1.5" as 1.5."""
    if not isinstance(rec, dict) or set(rec) != {"tokens", "vectors"}:
        raise DataError("expected keys 'tokens' and 'vectors'")
    tokens, vectors = rec["tokens"], rec["vectors"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise DataError("tokens must be a list of strings")
    if type(vectors) is not list or not vectors or not all(
            type(row) is list and set(map(type, row)) <= {int, float} for row in vectors):
        raise DataError("vectors must be a 2-D list of numbers")
    try:
        arr = np.asarray(vectors, dtype=np.float64)
    except ValueError:  # rows of different lengths
        raise DataError("vectors must be a 2-D list of numbers") from None
    except OverflowError:  # an integer beyond the float64 range
        raise DataError("vectors must be finite") from None
    if arr.shape[0] != len(tokens):
        raise DataError(f"{arr.shape[0]} vectors for {len(tokens)} tokens")
    if not np.isfinite(arr).all():
        raise DataError("vectors must be finite")
    return tuple(tokens), arr


def load_precomputed(path) -> dict[tuple[str, ...], Tensor]:
    """Read frozen per-token vectors from JSON Lines.

    Each record is {"tokens": [...], "vectors": [[...], ...]} with one vector
    per token, every entry a finite JSON number (not a boolean or a string).
    Sentences are keyed by their exact token sequence. A sentence may repeat
    (a converter may write one record per aspect) only with equal vectors. A
    malformed record, a NaN or infinite entry (which json.loads accepts), or
    a repeat with other vectors raises DataError naming its file and line
    (and, for a repeat, the line of the sentence's first record).
    """
    table: dict[tuple[str, ...], Tensor] = {}
    first_line: dict[tuple[str, ...], int] = {}
    for lineno, (tokens, arr) in read_jsonl(path, _vector_record):
        kept = table.setdefault(tokens, arr)
        first = first_line.setdefault(tokens, lineno)
        if kept is not arr and not np.array_equal(kept, arr):
            raise DataError(f"{path}:{lineno}: sentence repeats line {first} "
                            "with other vectors")
    return table
