import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("head", ["x", "+1", "0_1", "\u0661", " 1", "1 ", "01", "-1", "1.0", "",
                                      pytest.param("9" * 5000, id="more-digits-than-int-reads")])
    def test_non_integer_head(self, head):
        """HEAD is read by the ID column's rule: a decimal string with no
        sign, underscore, space or leading zero, in ASCII digits."""
        text = ("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
                f"2\tb\t_\t_\t_\t_\t{head}\tdep\t_\t_\n")
        with pytest.raises(ParseError) as err:
            parse_conllu(text)
        assert str(err.value) == f"line 2: HEAD column is not an integer: {head!r}"

    def test_a_head_of_two_digits_reads(self):
        text = "".join(f"{k}\tw{k}\t_\t_\t_\t_\t{k - 1}\tdep\t_\t_\n" for k in range(1, 12))
        assert parse_conllu(text)[0].heads == list(range(11))

    @pytest.mark.parametrize("line", [" ", "\x0c", "\t", " \x0b "])
    def test_a_line_of_only_whitespace_is_not_a_sentence_break(self, line):
        """Only an empty line ends a sentence. A line of only whitespace is
        refused at its line, as the UD validator refuses it, so a stray space
        or form feed never splits a sentence silently."""
        with pytest.raises(ParseError) as err:
            parse_conllu(CONLLU_TWO_TOKENS + f"{line}\n" + CONLLU_TWO_TOKENS)
        assert str(err.value) == (f"line 4: a line of only whitespace is not a sentence "
                                  f"break: {line!r}")

    def test_multiple_roots(self):
        text = ("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
                "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(ParseError, match="one root"):
            parse_conllu(text)

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0c", "\x0b"])
    def test_only_newline_ends_a_line(self, char):
        """Only "\n" ends a line: a comment holding one of these characters
        is one line, and the lines after it keep their numbers."""
        trees = parse_conllu(f"# text = a{char}b\n" + CONLLU_TWO_TOKENS.split("\n", 1)[1])
        assert trees[0].tokens == ["great", "food"]
        text = (f"# text = a{char}\n"
                "1\tgreat\t_\t_\t_\t_\t2\tamod\t_\t_\n"
                "2\tfood\t_\t_\t_\t_\tx\troot\t_\t_\n")
        with pytest.raises(ParseError, match="^line 3: HEAD column is not an integer: 'x'$"):
            parse_conllu(text)

    def test_word_ids_must_run_from_1(self):
        """Read by position, IDs 1, 3, 2 would build a tree the file does not
        describe: word 2 names itself as its head, an amod edge by position."""
        text = ("1\tthe\t_\t_\t_\t_\t3\tdet\t_\t_\n"
                "3\tfood\t_\t_\t_\t_\t0\troot\t_\t_\n"
                "2\tgreat\t_\t_\t_\t_\t2\tamod\t_\t_\n")
        with pytest.raises(ParseError, match="^line 2: expected word ID 2, got '3'$"):
            parse_conllu(text)
        with pytest.raises(ParseError, match="^line 2: expected word ID 1, got '01'$"):
            parse_conllu("# x\n01\ta\t_\t_\t_\t_\t0\troot\t_\t_\n")


# Any character but the three that end a CoNLL-U field or line; the ones that
# str.splitlines() would also break at are drawn often.
FREE_TEXT = st.one_of(st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                      st.characters(exclude_characters="\t\n\r"))
FIELD = st.text(FREE_TEXT, min_size=1, max_size=6)


@st.composite
def conllu_documents(draw):
    """(lines, word_lines, trees): valid CoNLL-U text as its lines, the index
    of every word line, and the (tokens, heads, rels) each sentence must parse
    to. Sentences carry comments, multiword ranges and empty nodes."""
    lines, word_lines, trees = [], [], []
    for s in range(draw(st.integers(1, 3))):
        if s:
            lines.append("")
        n = draw(st.integers(1, 6))
        order = draw(st.permutations(range(1, n + 1)))
        heads = [0] * n
        for j in range(1, n):
            heads[order[j] - 1] = draw(st.sampled_from(order[:j]))
        forms, lemmas, rels, miscs = (draw(st.lists(FIELD, min_size=n, max_size=n))
                                      for _ in range(4))
        lines += ["#" + draw(st.text(FREE_TEXT, max_size=10))
                  for _ in range(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            lines.append("0.1\t" + "\t".join(draw(st.lists(FIELD, min_size=9, max_size=9))))
        for k in range(1, n + 1):
            if k < n and draw(st.booleans()):
                lines.append(f"{k}-{k + 1}\t{draw(FIELD)}\t_\t_\t_\t_\t_\t_\t_\t{draw(FIELD)}")
            word_lines.append(len(lines))
            lines.append(f"{k}\t{forms[k - 1]}\t{lemmas[k - 1]}\tX\tX\t_\t{heads[k - 1]}"
                         f"\t{rels[k - 1]}\t_\t{miscs[k - 1]}")
            if draw(st.booleans()):
                lines.append(f"{k}.1\t{draw(FIELD)}\t_\t_\t_\t_\t_\t_\t{k}:dep\t_")
        trees.append((forms, heads, rels))
    return lines, word_lines, trees


def conllu_text(lines) -> str:
    return "\n".join(lines) + "\n"


class TestConlluProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(conllu_documents())
    def test_valid_text_parses_back_to_its_trees(self, doc):
        lines, _, trees = doc
        parsed = parse_conllu(conllu_text(lines))
        assert [(t.tokens, t.heads, t.rels) for t in parsed] == trees

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(conllu_documents(), st.data())
    def test_a_changed_word_id_is_named_at_its_line(self, doc, data):
        lines, word_lines, _ = doc
        i = data.draw(st.sampled_from(word_lines))
        word_id, rest = lines[i].split("\t", 1)
        new_id = data.draw(st.integers(0, 99).map(str).filter(lambda j: j != word_id))
        lines = lines[:i] + [f"{new_id}\t{rest}"] + lines[i + 1:]
        with pytest.raises(ParseError) as err:
            parse_conllu(conllu_text(lines))
        assert str(err.value) == f"line {i + 1}: expected word ID {word_id}, got '{new_id}'"

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(conllu_documents(), st.data())
    def test_a_word_made_its_own_head_is_named_at_its_line(self, doc, data):
        lines, word_lines, _ = doc
        i = data.draw(st.sampled_from(word_lines))
        cols = lines[i].split("\t")
        cols[6] = cols[0]
        lines = lines[:i] + ["\t".join(cols)] + lines[i + 1:]
        with pytest.raises(ParseError) as err:
            parse_conllu(conllu_text(lines))
        assert str(err.value) == f"line {i + 1}: word {cols[0]} is its own head"


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
