#!/usr/bin/env python3
"""From a dependency parse to an aspect-word interactive graph.

The parse arrives as CoNLL-U. For each aspect we contract its tokens into
one node and connect every context word within kappa_max hops directly to
it; the edge remembers the relation labels along the path plus the hop
count ("nsubj:2" style composed tags).
"""

import json

from gdd.dep_graph import build_awig, parse_conllu

CONLLU = """\
# text = the noise level is not overwhelming here
1\tthe\tthe\tDET\tDT\t_\t3\tdet\t_\t_
2\tnoise\tnoise\tNOUN\tNN\t_\t3\tcompound\t_\t_
3\tlevel\tlevel\tNOUN\tNN\t_\t6\tnsubj\t_\t_
4\tis\tbe\tAUX\tVBZ\t_\t6\tcop\t_\t_
5\tnot\tnot\tPART\tRB\t_\t6\tadvmod\t_\t_
6\toverwhelming\toverwhelming\tADJ\tJJ\t_\t0\troot\t_\t_
7\there\there\tADV\tRB\t_\t6\tadvmod\t_\t_
"""

tree = parse_conllu(CONLLU)[0]
print("tokens:", tree.tokens)
print("heads: ", tree.heads)
print("rels:  ", tree.rels)

# aspect "noise level" = tokens 1..2 (0-based, inclusive)
for kappa_max in (1, 2, 3):
    awig = build_awig(tree, (1, 2), kappa_max=kappa_max)
    print(f"\nkappa_max = {kappa_max}: {awig.num_words} word nodes")
    graph = awig.to_json_dict(tree.tokens)
    for node, edge in zip(graph["nodes"], graph["edges"]):
        print(f"  aspect --[{edge['tag']:<22}]--> {node['text']!r}")

print("\nfull JSON for kappa_max=3:")
print(json.dumps(build_awig(tree, (1, 2), 3).to_json_dict(tree.tokens), indent=2))
