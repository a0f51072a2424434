"""Seeded input corpora for the gdd benchmark.

`semeval_records` generates a corpus shaped like SemEval-2014 restaurant
reviews (Pontiki et al. 2014): Zipf-distributed word types, lognormal
sentence lengths, random projective dependency trees over the 37 Universal
Dependencies relations, 1-3-token aspects with an opinion word planted a
few tokens away, and balanced labels. Records are plain dicts in the JSONL
schema that `gdd.data.load_dataset` reads; nothing here imports gdd.
"""

from __future__ import annotations

import json

import numpy as np

LABELS = ("positive", "neutral", "negative")

# Shape of the corpus. Median length, the 5-80 clip and the ~5k types (from
# LEXICON_SIZE and the Zipf exponents) are the targets the benchmark was
# defined with. Every other shape parameter below is marked as an assumption:
# none has been checked against SemEval-2014 or Universal Dependencies
# statistics, and all of them wait for the real data to be compared with.
LEXICON_SIZE = 5600
ZIPF_S, ZIPF_Q = 1.0, 2.7       # rank r drawn with weight 1 / (r + q)^s
MEDIAN_LEN = 18.0
LEN_SIGMA = 0.55                # assumption: the lognormal's tail (p90 ~36 tokens)
MIN_LEN, MAX_LEN = 5, 80
ASPECT_LEN_P = (0.6, 0.3, 0.1)  # assumption: shares of 1-, 2- and 3-token aspects
FAR_OPINION_P = 1 / 3           # assumption: share of sentences with a far-away opinion

# The 37 Universal Dependencies v2 relations. Assumption: non-root relations
# are drawn with weights 1 / rank^1.2 in this order.
UD_RELATIONS = (
    "punct", "case", "det", "nsubj", "amod", "obj", "advmod", "obl", "nmod",
    "conj", "cc", "mark", "aux", "cop", "compound", "root", "acl", "advcl",
    "xcomp", "ccomp", "nummod", "appos", "flat", "fixed", "parataxis", "iobj",
    "expl", "csubj", "discourse", "list", "dep", "vocative", "clf",
    "dislocated", "goeswith", "orphan", "reparandum",
)
_NONROOT = tuple(r for r in UD_RELATIONS if r != "root")
_REL_WEIGHTS = 1.0 / np.arange(1, len(_NONROOT) + 1) ** 1.2
_REL_WEIGHTS /= _REL_WEIGHTS.sum()

OPINIONS = {
    "positive": ("great", "excellent", "delicious", "wonderful", "friendly",
                 "fresh", "amazing", "tasty", "attentive", "perfect"),
    "neutral": ("okay", "average", "ordinary", "acceptable", "standard",
                "typical", "decent", "fair", "moderate", "plain"),
    "negative": ("terrible", "awful", "dreadful", "disappointing", "rude",
                 "bland", "stale", "slow", "overpriced", "horrible"),
}

_SYLLABLES = ("ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "ve", "du",
              "ga", "shi", "bo", "fe", "zu", "ya", "ho", "wi", "ce", "pa")


def lexicon(size: int) -> list[str]:
    """`size` distinct pseudo-words, rank 0 first; independent of any seed."""
    base = len(_SYLLABLES)
    words = []
    for i in range(size):
        parts, k = [], i
        while True:
            parts.append(_SYLLABLES[k % base])
            k //= base
            if k == 0:
                break
        words.append("".join(parts) + ("n" if len(parts) == 1 else ""))
    return words


def _projective_tree(n: int, rng: np.random.Generator) -> list[int]:
    """1-based heads of a random projective tree: each span picks a head and
    splits its left and right remainders into 1-3 dependent subspans.
    Assumption: this shape sets the graph size per aspect (the dgat cost)."""
    heads = [0] * n
    stack = [(0, n, 0)]  # (lo, hi, 1-based parent or 0 for the root)
    while stack:
        lo, hi, parent = stack.pop()
        h = int(rng.integers(lo, hi))
        heads[h] = parent
        for a, b in ((lo, h), (h + 1, hi)):
            if a >= b:
                continue
            k = min(int(rng.integers(0, 3)), b - a - 1)  # cuts, so 1-3 subspans
            cuts = sorted(rng.choice(np.arange(a + 1, b), size=k, replace=False).tolist()) if k else []
            bounds = [a, *cuts, b]
            for x, y in zip(bounds, bounds[1:]):
                stack.append((x, y, h + 1))
    return heads


def semeval_records(seed: int, count: int) -> list[dict]:
    """`count` aspect records drawn deterministically from `seed`."""
    rng = np.random.default_rng(seed)
    words = lexicon(LEXICON_SIZE)
    cdf = np.cumsum(1.0 / (np.arange(1, LEXICON_SIZE + 1) + ZIPF_Q) ** ZIPF_S)
    labels = [LABELS[i % len(LABELS)] for i in range(count)]
    rng.shuffle(labels)
    lengths = np.clip(np.rint(rng.lognormal(np.log(MEDIAN_LEN), LEN_SIGMA, count)),
                      MIN_LEN, MAX_LEN).astype(int)
    ranks = np.searchsorted(cdf, rng.random(int(lengths.sum())) * cdf[-1]).tolist()
    records = []
    offset = 0
    for label, n in zip(labels, lengths.tolist()):
        tokens = [words[r] for r in ranks[offset:offset + n]]
        offset += n
        a_len = min(int(rng.choice((1, 2, 3), p=ASPECT_LEN_P)), n - 1)
        start = int(rng.integers(0, n - a_len + 1))
        end = start + a_len
        # Plant the opinion word 1-3 tokens to the left or right of the aspect.
        slots = [i for d in (1, 2, 3) for i in (start - d, end - 1 + d)
                 if 0 <= i < n and not start <= i < end]
        tokens[int(rng.choice(slots))] = str(rng.choice(OPINIONS[label]))
        # Some sentences carry a far-away opinion of another polarity.
        if rng.random() < FAR_OPINION_P:
            far = [i for i in range(n) if abs(i - start) > 5 and abs(i - end) > 5]
            if far:
                other = str(rng.choice([l for l in LABELS if l != label]))
                tokens[int(rng.choice(far))] = str(rng.choice(OPINIONS[other]))
        heads = _projective_tree(n, rng)
        rels = ["root" if h == 0 else _NONROOT[k]
                for h, k in zip(heads, rng.choice(len(_NONROOT), size=n, p=_REL_WEIGHTS))]
        records.append({"tokens": tokens, "aspect_start": start, "aspect_end": end,
                        "label": label, "dep_heads": heads, "dep_rels": rels})
    return records


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
