import numpy as np
import pytest

from gdd.dep_graph import (
    Awig,
    DepTree,
    ParseError,
    build_awig,
    parse_conllu,
)
from gdd.numeric import Rng

CONLLU_TWO_TOKENS = """\
# sent_id = 1
1\tgreat\tgreat\tADJ\tJJ\t_\t2\tamod\t_\t_
2\tfood\tfood\tNOUN\tNN\t_\t0\troot\t_\t_
"""

CONLLU_WITH_MULTIWORD = """\
1\tI\tI\tPRON\tPRP\t_\t3\tnsubj\t_\t_
2-3\tdon't\t_\t_\t_\t_\t_\t_\t_\t_
2\tdo\tdo\tAUX\tVBP\t_\t3\taux\t_\t_
3\tlike\tlike\tVERB\tVB\t_\t0\troot\t_\t_
4\tit\tit\tPRON\tPRP\t_\t3\tobj\t_\t_
"""


def chain_tree():
    # root <- w1 <- w2 <- aspect, token order: [w_root, w1, w2, aspect]
    return DepTree(
        tokens=["w_root", "w1", "w2", "aspect"],
        heads=[0, 1, 2, 3],
        rels=["root", "dep_c", "dep_a", "dep_b"],
    )


class TestParseConllu:
    def test_two_token_fixture(self):
        trees = parse_conllu(CONLLU_TWO_TOKENS)
        assert len(trees) == 1
        assert trees[0].tokens == ["great", "food"]
        assert trees[0].heads == [2, 0]
        assert trees[0].rels == ["amod", "root"]

    def test_blank_input(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_multiword_range_skipped(self):
        trees = parse_conllu(CONLLU_WITH_MULTIWORD)
        assert trees[0].tokens == ["I", "do", "like", "it"]

    def test_two_sentences(self):
        trees = parse_conllu(CONLLU_TWO_TOKENS + "\n" + CONLLU_TWO_TOKENS)
        assert len(trees) == 2

    def test_cycle_named(self):
        text = ("1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
                "2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n")
        with pytest.raises(ParseError, match="cycle.*\\[1, 2\\]"):
            parse_conllu(text)

    def test_bad_column_count_line_number(self):
        with pytest.raises(ParseError, match="line 1.*columns"):
            parse_conllu("1\tonly\tthree\n")

    def test_non_integer_head(self):
        text = "1\ta\t_\t_\t_\t_\tx\tdep\t_\t_\n"
        with pytest.raises(ParseError, match="line 1.*HEAD"):
            parse_conllu(text)

    def test_multiple_roots(self):
        text = ("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
                "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(ParseError, match="one root"):
            parse_conllu(text)


class TestDepTree:
    def test_self_head_rejected(self):
        with pytest.raises(ParseError, match="own head"):
            DepTree(["a", "b"], [1, 0], ["x", "root"])

    def test_head_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            DepTree(["a"], [5], ["root"])

    def test_length_mismatch(self):
        with pytest.raises(ParseError, match="disagree"):
            DepTree(["a", "b"], [0], ["root"])


def rendered_tag(path) -> str:
    """The composed tag of a one-edge graph whose edge carries path."""
    awig = Awig([0], [1], [tuple(path)])
    return awig.to_json_dict(["aspect", "word"])["edges"][0]["tag"]


class TestComposeTag:
    def test_single(self):
        assert rendered_tag(["nsubj"]) == "nsubj:1"

    def test_double(self):
        assert rendered_tag(["amod", "nsubj"]) == "amod:nsubj:2"


class TestBuildAwig:
    def test_chain_paths(self):
        awig = build_awig(chain_tree(), (3, 3), kappa_max=3)
        by_token = dict(zip(awig.words, awig.paths))
        assert by_token[2] == ("dep_b",)          # w2, one hop
        assert by_token[1] == ("dep_b", "dep_a")  # w1, two hops
        assert by_token[0] == ("dep_b", "dep_a", "dep_c")

    def test_kappa_cutoff_discards(self):
        awig = build_awig(chain_tree(), (3, 3), kappa_max=2)
        assert awig.words == [1, 2]

    def test_whole_sentence_aspect(self):
        awig = build_awig(chain_tree(), (0, 3), kappa_max=3)
        assert awig.num_words == 0
        assert awig.words == [] and awig.paths == []

    def test_aspect_never_a_word_node(self):
        awig = build_awig(chain_tree(), (1, 2), kappa_max=3)
        assert set(awig.words).isdisjoint({1, 2})

    def test_invalid_span(self):
        with pytest.raises(ValueError, match="span"):
            build_awig(chain_tree(), (2, 5), kappa_max=3)

    def test_drop_punct(self):
        tree = DepTree(["nice", "food", "!"], [2, 0, 2], ["amod", "root", "punct"])
        with_punct = build_awig(tree, (1, 1), kappa_max=3)
        without = build_awig(tree, (1, 1), kappa_max=3, drop_punct=True)
        assert with_punct.words == [0, 2]
        assert without.words == [0]

    def test_deterministic_rebuild(self):
        tree = random_tree(Rng(9), 10)
        a = build_awig(tree, (2, 4), kappa_max=3)
        b = build_awig(tree, (2, 4), kappa_max=3)
        assert a == b

    def test_json_shape(self):
        awig = build_awig(chain_tree(), (3, 3), kappa_max=2)
        d = awig.to_json_dict(chain_tree().tokens)
        assert set(d) == {"aspect_tokens", "nodes", "edges"}
        assert d["edges"][0].keys() == {"node", "path", "hops", "tag"}
        assert all(e["tag"].endswith(str(e["hops"])) for e in d["edges"])


def random_tree(rng: Rng, n: int) -> DepTree:
    """Random labeled tree: token i attaches to a random earlier token."""
    order = rng.permutation(n)
    heads = [0] * n
    rels = ["root"] * n
    tags = ["nsubj", "obj", "amod", "det", "advmod", "conj", "cop"]
    for pos in range(1, n):
        child = int(order[pos])
        parent = int(order[rng.integers(0, pos)])
        heads[child] = parent + 1
        rels[child] = rng.choice(tags)
    return DepTree([f"t{i}" for i in range(n)], heads, rels)


def undirected_edges(tree: DepTree) -> list[tuple[int, int, str]]:
    """(child, head, rel) for every non-root attachment, 0-based indices."""
    return [(i, h - 1, rel) for i, (h, rel) in enumerate(zip(tree.heads, tree.rels)) if h != 0]


def contracted_shortest_paths(tree: DepTree, aspect: set[int]) -> dict[int, int]:
    """Floyd-Warshall distances from the contracted aspect node; oracle only."""
    n = len(tree)
    nodes = [i for i in range(n) if i not in aspect] + ["A"]
    idx = {node: k for k, node in enumerate(nodes)}
    big = 10 ** 6
    dist = np.full((len(nodes), len(nodes)), big)
    np.fill_diagonal(dist, 0)

    def key(tok):
        return "A" if tok in aspect else tok

    for child, head, _ in undirected_edges(tree):
        a, b = key(child), key(head)
        if a == b:
            continue
        ia, ib = idx[a], idx[b]
        dist[ia, ib] = dist[ib, ia] = 1
    for k in range(len(nodes)):
        for i in range(len(nodes)):
            for j in range(len(nodes)):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return {tok: int(dist[idx[tok], idx["A"]]) for tok in range(n) if tok not in aspect}


def replay_reachable(tree: DepTree, aspect: set[int], path: tuple[str, ...]) -> set[int]:
    """All tokens reachable from the aspect by following exactly these tags."""
    current = set(aspect)
    visited_states = set()
    for step, tag in enumerate(path):
        nxt = set()
        for u in current:
            for child, head, rel in undirected_edges(tree):
                if rel != tag:
                    continue
                if child == u:
                    nxt.add(head)
                elif head == u:
                    nxt.add(child)
        current = {v for v in nxt if (step, v) not in visited_states}
        visited_states.update((step, v) for v in current)
    return current


class TestAwigOracles:
    def test_hops_match_floyd_warshall(self):
        rng = Rng(77)
        for trial in range(60):
            n = 3 + rng.integers(0, 10)
            tree = random_tree(Rng(1000 + trial), n)
            s = rng.integers(0, n)
            e = min(n - 1, s + rng.integers(0, 2))
            kappa_max = 1 + rng.integers(0, 4)
            aspect = set(range(s, e + 1))
            awig = build_awig(tree, (s, e), kappa_max)
            oracle = contracted_shortest_paths(tree, aspect)

            hops_by_token = {tok: len(path) for tok, path in zip(awig.words, awig.paths)}
            for tok, d in oracle.items():
                if d <= kappa_max:
                    assert hops_by_token[tok] == d, (trial, tok)
                else:
                    assert tok not in hops_by_token, (trial, tok)

    def test_tag_paths_replay_to_their_node(self):
        rng = Rng(55)
        for trial in range(40):
            n = 4 + rng.integers(0, 8)
            tree = random_tree(Rng(2000 + trial), n)
            s = rng.integers(0, n - 1)
            aspect = {s}
            awig = build_awig(tree, (s, s), kappa_max=3)
            for tok, path in zip(awig.words, awig.paths):
                reached = replay_reachable(tree, aspect, path)
                assert tok in reached, (trial, tok, path)
