"""
The twisted loop and its graph code
===================================

A loop of order 2p built from signed residue arithmetic, whose graph is a
distance-2 MDS code with a sharply transitive symmetry group.
"""

from topolinear import (TransitivityCertificate, chase_to_zero_cp,
                        cp_regular_generators, cp_regular_witness, is_mds,
                        is_topolinear, make_cp, mulclose, twisted_graph_code)
from topolinear.constructions import ic_p_generators

p = 5
L = make_cp(p)
print(f"loop of order {L.q}, identity {L.identity}")

# the graph: all (x, y, x*y), one codeword per line of the Hamming space
M = twisted_graph_code(p)
print(f"graph code: {len(M)} words, mds = {bool(is_mds(M))}")

# three families of symmetries; every parameter choice fixes the code setwise
fams = ic_p_generators(p)
print(f"{len(fams)} family maps, all symmetries:",
      all(g.is_automorphism_of(M) for g in fams))

# any codeword chases down to (0, 0, 0) by composing three family members
w = M.words[17]
g = chase_to_zero_cp(p, w)
print(f"chase {w} -> {g.apply_word(w)}")

# the full closure of the families overshoots: p times more maps than words
closure = mulclose(fams)
print(f"family closure: {len(closure)} elements vs {len(M)} words")

# inside it sits a sharply transitive subgroup, one element per codeword
gens = cp_regular_generators(p)
group = mulclose(gens)
print(f"regular subgroup: {len(group)} elements")

# closed-form witness per word, no search; together they replay as a
# topolinear certificate: one symmetry per word, closed under composition
base = (0, 0, 0)
cert = TransitivityCertificate("topolinear", base,
                               {w: cp_regular_witness(p, w) for w in M.words})
print("topolinear certificate replays:", cert.verify(M))

print("topolinear:", is_topolinear(M).status)
