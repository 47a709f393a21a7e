"""
Delannoy paths, orbit representatives, and ruffles
==================================================

Paths with unit up, right and diagonal steps index the orbits of pairs of
increasing tuples; weights (words in b/w) index everything else.  Marked
ruffles of two weights compute both tensor product rules; a ruffle is itself
a Delannoy path, interleaving the letters of the two weights with a diagonal
step for each collision.
"""

from delannoy.paths import (delannoy, enumerate_paths, is_quasi_diagonal,
                            path_of_pair, representative)
from delannoy.weights import marked_ruffles, tensor_summands

print("Delannoy numbers D(m, n):")
for m in range(5):
    print("  " + " ".join(f"{delannoy(m, n):5d}" for n in range(5)))

print("\nthe three (1,1) paths and their integer representatives:")
for p in enumerate_paths(1, 1):
    y, x = representative(p)
    print(f"  {p:>2}: y={y} x={x}  (round trip: {path_of_pair(y, x) == p})")

qd = [p for p in enumerate_paths(3, 3)
      if "D" not in p and is_quasi_diagonal(p)]
print(f"\nquasi-diagonal (3,3) paths without diagonal steps: {len(qd)} = 2^3")

print("\nmarked ruffles of b and w:")
for rho, w in marked_ruffles("b", "w"):
    print(f"  rho1={rho.rho1} rho2={rho.rho2} marks={rho.rho3}"
          f"  ->  {w or 'e'}")

print("\ntensor rules (unrestricted vs final-empty-forbidden):")
print("  simples:        ", [w or "e" for w in tensor_summands("b", "w", False)])
print("  indecomposables:", [w or "e" for w in tensor_summands("b", "w", True)])
