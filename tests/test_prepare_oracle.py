"""The one-pass ingest path against its earlier, plainer bodies.

`oracle_validate`, `oracle_build_awig` and `oracle_prepare` keep the
straightforward per-edge versions of `DepTree.validate`, `build_awig` and
`Model.prepare` that the library's faster bodies replaced: a status-walk
over the head chains, an adjacency list sorted per node, an explicit node
id and hop count per edge (checked against the node's position and the
path's length), and ids looked up in each vocabulary's own list, one edge at
a time. The
property tests below check that the library gives the same graphs, the same
prepared arrays (values, dtypes, shapes and contiguity) and the same error
messages.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gdd.data import Example
from gdd.dep_graph import Awig, DepTree, ParseError, build_awig
from gdd.embeddings import PAD, UNK, TagVocab, Vocab
from gdd.model import Model, ModelConfig, Prepared
from gdd.numeric import Rng
from test_dep_graph import random_tree


def oracle_validate(tokens, heads, rels) -> None:
    n = len(tokens)
    if not (len(heads) == len(rels) == n):
        raise ParseError(
            f"tree arrays disagree: {n} tokens, {len(heads)} heads, {len(rels)} rels"
        )
    if n == 0:
        raise ParseError("empty tree")
    for i, h in enumerate(heads, start=1):
        if not 0 <= h <= n:
            raise ParseError(f"token {i}: head {h} outside [0, {n}]")
        if h == i:
            raise ParseError(f"token {i} is its own head")
    # Walk head chains; any revisit before reaching the root is a cycle.
    status = [0] * (n + 1)  # 0 unvisited, 1 on current path, 2 done
    status[0] = 2
    for start in range(1, n + 1):
        if status[start]:
            continue
        path = []
        node = start
        while status[node] == 0:
            status[node] = 1
            path.append(node)
            node = heads[node - 1]
        if status[node] == 1:
            cycle = path[path.index(node):]
            raise ParseError(f"cycle in heads through tokens {cycle}")
        for p in path:
            status[p] = 2
    roots = [i for i, h in enumerate(heads, start=1) if h == 0]
    if len(roots) != 1:
        raise ParseError(f"expected exactly one root, found {len(roots)}")


def oracle_build_awig(tree, span, kappa_max, drop_punct=False) -> Awig:
    n = len(tree)
    s, e = span
    if not (0 <= s <= e < n):
        raise ValueError(f"invalid aspect span [{s}, {e}] for {n} tokens")
    if kappa_max < 1:
        raise ValueError("kappa_max must be at least 1")
    aspect = set(range(s, e + 1))

    adj: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for child, (h, rel) in enumerate(zip(tree.heads, tree.rels)):
        if h == 0 or (drop_punct and rel == "punct"):
            continue
        adj[child].append((h - 1, rel))
        adj[h - 1].append((child, rel))
    for lst in adj:
        lst.sort()

    paths: dict[int, tuple[str, ...]] = {}
    frontier = sorted(aspect)
    visited = set(aspect)
    for _ in range(kappa_max):
        nxt = []
        for u in frontier:
            base = paths.get(u, ())
            for v, rel in adj[u]:
                if v in visited:
                    continue
                visited.add(v)
                paths[v] = base + (rel,)
                nxt.append(v)
        frontier = sorted(nxt)
        if not frontier:
            break

    word_nodes = [(tok, node_id) for node_id, tok in enumerate(sorted(paths))]
    edges = [(node_id, paths[tok], len(paths[tok])) for tok, node_id in word_nodes]
    for position, ((_, node_id), (edge_node, path, hops)) in enumerate(zip(word_nodes, edges)):
        assert node_id == edge_node == position
        assert hops == len(path)
    return Awig(aspect_token_ids=sorted(aspect), words=[tok for tok, _ in word_nodes],
                paths=[path for _, path, _ in edges])


def oracle_id(vocab, token) -> int:
    listed = vocab.to_list()
    return listed.index(token) if token in listed else UNK


def oracle_composed_tag_ids(path, hops, tag_vocab, kappa_max):
    if hops != len(path):
        raise ValueError(f"composed tag: hop count {hops} != path length {len(path)}")
    if hops < 1:
        raise ValueError("composed tag: needs at least one hop")
    if hops > kappa_max:
        raise ValueError(f"composed tag: {hops} hops exceeds kappa_max={kappa_max}")
    slots = [oracle_id(tag_vocab, t) for t in path] + [PAD] * (kappa_max - hops)
    return np.array(slots + [len(tag_vocab) + hops - 1], dtype=np.intp)


def oracle_prepare(model, example) -> Prepared:
    cfg = model.config
    oracle_validate(example.tokens, example.dep_heads, example.dep_rels)
    tree = DepTree.__new__(DepTree)  # validated just above
    tree.tokens, tree.heads, tree.rels = (list(example.tokens), list(example.dep_heads),
                                          list(example.dep_rels))
    awig = oracle_build_awig(tree, example.aspect_span_inclusive,
                             cfg.kappa_max, drop_punct=cfg.drop_punct)
    edges = np.zeros((awig.num_words, cfg.kappa_max + 1), dtype=np.intp)
    for node_id, path in enumerate(awig.paths):
        edges[node_id] = oracle_composed_tag_ids(path, len(path), model.tag_vocab, cfg.kappa_max)
    return Prepared(
        example=example,
        token_ids=np.array([oracle_id(model.vocab, t) for t in example.tokens], dtype=np.intp),
        span=example.aspect_span_inclusive,
        gold=example.label_id,
        awig=awig,
        word_token_idx=np.array(awig.words, dtype=np.intp),
        edge_tag_ids=edges,
    )


# Tags seen by the models' vocabularies; random_tree also draws "obj",
# "conj" and "cop", and the tests below add "punct", so some edges map to UNK.
KNOWN_TAGS = ["root", "nsubj", "amod", "det", "advmod", "punct"]
_MODELS: dict[tuple[int, bool], Model] = {}


def model_for(kappa_max: int, drop_punct: bool) -> Model:
    key = (kappa_max, drop_punct)
    if key not in _MODELS:
        config = ModelConfig(d_model=4, d_tag=2, d_hid=2, d_head=2, U=1, V=1, L=1,
                             kappa_max=kappa_max, drop_punct=drop_punct)
        vocab = Vocab.from_corpus([[f"t{i}" for i in range(0, 12, 2)]])
        _MODELS[key] = Model.build(config, vocab, TagVocab.from_corpus([KNOWN_TAGS]))
    return _MODELS[key]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert np.array_equal(got, want)


@st.composite
def examples(draw):
    n = draw(st.integers(1, 12))
    tree = random_tree(Rng(draw(st.integers(0, 2**32 - 1))), n)
    rels = [("punct" if draw(st.booleans()) and h else rel)
            for h, rel in zip(tree.heads, tree.rels)]
    start = draw(st.integers(0, n - 1))
    end = draw(st.integers(start + 1, n))
    return Example(tokens=list(tree.tokens), aspect_start=start, aspect_end=end,
                   label=draw(st.sampled_from(["positive", "neutral", "negative"])),
                   dep_heads=list(tree.heads), dep_rels=rels)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(examples(), st.integers(1, 5), st.booleans())
def test_build_awig_and_prepare_match_the_oracles(example, kappa_max, drop_punct):
    tree = DepTree(example.tokens, example.dep_heads, example.dep_rels)
    span = example.aspect_span_inclusive
    assert (build_awig(tree, span, kappa_max, drop_punct)
            == oracle_build_awig(tree, span, kappa_max, drop_punct))

    model = model_for(kappa_max, drop_punct)
    got, want = model.prepare(example), oracle_prepare(model, example)
    assert got.example is want.example
    assert (got.span, got.gold, got.awig) == (want.span, want.gold, want.awig)
    for name in ("token_ids", "word_token_idx", "edge_tag_ids"):
        assert_same_array(getattr(got, name), getattr(want, name))


def test_an_aspect_covering_the_sentence_prepares_an_empty_graph():
    example = Example(tokens=["t0", "t1"], aspect_start=0, aspect_end=2, label="neutral",
                      dep_heads=[2, 0], dep_rels=["amod", "root"])
    model = model_for(3, False)
    got, want = model.prepare(example), oracle_prepare(model, example)
    assert got.awig.num_words == 0
    for name in ("token_ids", "word_token_idx", "edge_tag_ids"):
        assert_same_array(getattr(got, name), getattr(want, name))


def _error(fn, *args):
    try:
        fn(*args)
    except ParseError as e:
        return str(e)
    return None


@st.composite
def head_lists(draw):
    """A random tree's heads with up to three entries overwritten, and a rels
    list that is now and then one entry short or long."""
    n = draw(st.integers(0, 9))
    heads = random_tree(Rng(draw(st.integers(0, 2**32 - 1))), n).heads if n else []
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        heads[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    rels = ["dep"] * max(n + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])), 0)
    return [f"t{i}" for i in range(n)], heads, rels


@settings(max_examples=400, deadline=None, derandomize=True)
@given(head_lists())
def test_invalid_heads_raise_the_oracles_message(case):
    want = _error(oracle_validate, *case)
    assert _error(DepTree, *case) == want
