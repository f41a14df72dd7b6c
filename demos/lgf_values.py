"""Evaluate the lattice Green's function across its three regimes.

Near the origin the values come from the 1D quadrature (with a handful
of closed forms available as sanity anchors), far away from the
asymptotic expansion, and the recursion table offers an independent
third route along the diagonal band.
"""

import math

from latticebae.lgf import lgf, lgf_asymptotic, lgf_quadrature, lgf_recursion_table

CLOSED_FORMS = {
    (0, 0): 0.0,
    (1, 0): -0.25,
    (1, 1): -1.0 / math.pi,
    (2, 0): 2.0 / math.pi - 1.0,
    (2, 2): -4.0 / (3.0 * math.pi),
}

print("closed forms vs dispatcher")
for m, exact in sorted(CLOSED_FORMS.items()):
    value = lgf(m)
    print(f"  G{m} = {value:+.15f}   (exact {exact:+.15f}, "
          f"diff {abs(value - exact):.2e})")

print("\nquadrature vs asymptotic at the regime boundary")
for m in [(28, 0), (29, 12), (30, 30), (31, 7), (40, 25)]:
    q = lgf_quadrature(m)
    a = lgf_asymptotic(m)
    print(f"  G{m}: quadrature {q:+.12f}  asymptotic {a:+.12f}  "
          f"diff {abs(q - a):.2e}")

print("\nrecursion table vs dispatcher (jmax = 12)")
table = lgf_recursion_table(12)
worst = max(abs(v - lgf(m)) for m, v in table.values.items())
print(f"  {len(table.values)} entries, worst disagreement {worst:.2e}")
