"""
The tilting-side category: factorizations, uniserial standards, Ext
===================================================================

Hom spaces between weights are at most one-dimensional, every distinguished
morphism factors uniquely into basic ones, and the bounded homotopy category
of tiltings computes all Ext groups between the named modules.
"""

from delannoy.dmod import (basic_factorization, ext_dim, named_dmodule,
                           radical_filtration, tilting_complex)
from delannoy.weights import format_weight


def pretty(lam):
    return format_weight(lam)


print("basic factorizations:")
for src, dst in [("wb", "w"), ("wbwb", "wbw"), ("", "bw")]:
    steps = basic_factorization(src, dst)
    chain = " -> ".join([pretty(src)] + [pretty(b) for _, b in steps])
    print(f"  {pretty(src)} => {pretty(dst)}:   {chain}")

print("\nthe standard module at wbwb is uniserial (top to socle):")
for layer in radical_filtration(named_dmodule("Delta", "wbwb")):
    print("   ", {pretty(k): v for k, v in layer.items()})

print("\ntilting (co)resolutions of simples:")
for lam in ("wbb", "bww"):
    c = tilting_complex("S", lam)
    terms = {d: [pretty(w) for w in t] for d, t in sorted(c.terms.items())}
    print(f"  S_{pretty(lam)}: {terms}")

print("\nExt between standards and costandards is the identity pairing:")
for lam in ("e", "w", "wb"):
    src = "" if lam == "e" else lam
    row = {pretty(mu): [ext_dim("Delta", src, "Nabla", mu, i)
                        for i in range(3)]
           for mu in ("", "w", "wb")}
    print(f"  Delta_{lam}: {row}")

print("\nthe first Ext quiver of simples matches the basic arrows:")
for lam in ("", "b", "wb"):
    arrows = [pretty(mu) for mu in
              ("w", "bw", "e", "bbw", "ww", "wbw", "wbbw")
              if ext_dim("S", lam, "S", mu if mu != "e" else "", 1)]
    print(f"  S_{pretty(lam)} -> {arrows}")
