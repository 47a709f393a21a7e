"""
Modules over the combinatorial category: resolutions and Ext
============================================================

A finite module is a dimension vector with up/down generator matrices whose
rows and columns are complexes.  Minimal projective resolutions come from
iterated projective covers, as complexes of weight symbols in degrees
0, -1, ...; Ext is computed by homming the resolution into the target.
"""

from delannoy.bmod import (ext_table, has_standard_filtration,
                           min_projective_resolution, named_bmodule,
                           truncated_tilting)
from delannoy.weights import format_weight

q = named_bmodule("Q", "")
print("the uniserial three-step module at the empty weight:", q)

print("\nminimal resolutions (projective symbols by degree):")
for kind, lam in [("S", "w"), ("Q", "b"), ("Stan", "wbb")]:
    res = min_projective_resolution(named_bmodule(kind, lam), 4)
    # res.terms[d] holds the symbols in degree d = 0, -1, ...
    pretty = [" + ".join(format_weight(w) for w in res.terms[-k]) or "0"
              for k in range(len(res.terms))]
    print(f"  {kind}_{format_weight(lam)}: " + "  <-  ".join(pretty))

print("\nExt dimensions out of the simple at w (rows: target, cols: i):")
for nu in ("w", "ww", "www", "b", "e"):
    tgt = named_bmodule("S", "" if nu == "e" else nu)
    print(f"  S_{nu:>4}: {ext_table(named_bmodule('S', 'w'), tgt, 3)}")

print("\nstandard filtration detector:")
for kind, lam in [("P", "bb"), ("Stan", "w"), ("Cost", "b"), ("S", "w")]:
    m = named_bmodule(kind, lam)
    print(f"  {kind}_{format_weight(lam)}: {has_standard_filtration(m)}")

t = truncated_tilting("", 4)
print("\nthe tilting module at the empty weight, truncated to length 4,")
print("is the full module on the alternating words:",
      [format_weight(w) for w in t.support])
