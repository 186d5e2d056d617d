"""
Longer codes by block composition
=================================

Feed an outer loop with blocks of iterated dihedral products. One code per
integer partition of the total block arity, and distinct partitions give
inequivalent codes.
"""

from topolinear import (CompositionSpec, composition_code, composition_witness,
                        equivalent_codes, is_mds, partitions_of)

# the smallest interesting instance: outer twisted loop of order 6
spec = CompositionSpec("cp", 3, (1, 1))
M = composition_code(spec)
print(f"outer cp, blocks (1, 1): {len(M)} words of length {M.n}, "
      f"mds = {bool(is_mds(M))}")

# every word comes with an explicit symmetry flattening it to all zeros
w = M.words[7]
g = composition_witness(spec, w)
print(f"witness for {w}: flattens to {g.apply_word(w)}, "
      f"symmetry = {g.is_automorphism_of(M)}")

# one code per partition of 3; all pairwise inequivalent
codes = {}
for part in partitions_of(3):
    codes[part] = composition_code(CompositionSpec("zpz2", 3, part))
    print(f"partition {part}: length {codes[part].n}, {len(codes[part])} words")

parts = list(codes)
for i in range(len(parts)):
    for j in range(i + 1, len(parts)):
        verdict = equivalent_codes(codes[parts[i]], codes[parts[j]])
        print(f"{parts[i]} ~ {parts[j]}: {verdict is not None}")

# partitions of 4 give length-5 codes over 6 symbols: their intercalate
# profiles differ and decide the pair before any search
a = composition_code(CompositionSpec("zpz2", 3, (4,)))
b = composition_code(CompositionSpec("zpz2", 3, (2, 2)))
verdict = equivalent_codes(a, b)
print(f"(4,) ~ (2, 2): {verdict is not None}")
