"""
G-loops and principal isotopes
==============================

A loop is a G-loop when every principal isotope is isomorphic to it. Groups
always qualify; the twisted loop does too, which is what makes its graph code
transitive. A patched order-6 table shows the property genuinely failing.

The verdict is the orbit walk on the loop's graph: f is isomorphic to its
principal isotope at (a, b) exactly when some autotopism of graph(f) carries
(e, e, e) to (a, b, ab), e the identity.
"""

from topolinear import (autotopism_search, cyclic_loop, find_non_g_loop_order6,
                        graph_code, is_associative, is_g_loop, make_cp,
                        make_dihedral)

for name, loop in [("C3", make_cp(3)), ("C5", make_cp(5)),
                   ("Z6", cyclic_loop(6)), ("D3", make_dihedral(3)),
                   ("D5", make_dihedral(5))]:
    print(f"{name}: g-loop = {bool(is_g_loop(loop))}")

# the twisted loop is not a group, so its verdict is not the trivial one
print(f"C3 associative: {is_associative(make_cp(3))}")

# a loop built to fail: one principal isotope falls out of the isomorphism class
bad = find_non_g_loop_order6()
verdict = is_g_loop(bad)
a, b, iso = verdict.counterexample
print(f"patched order-6 loop: g-loop = {bool(verdict)}, "
      f"counterexample at (a, b) = ({a}, {b})")

# replay: no autotopism of the graph carries (e, e, e) to (a, b, ab)
e, target = bad.identity, (a, b, int(bad.table[a, b]))
pins = {(i, e): s for i, s in enumerate(target)}
print("replayed:", next(autotopism_search(graph_code(bad), pins=pins), None) is None)
