"""Exact computational engine for the first and second Delannoy categories.

Subpackages:
  weights   weight words and the (marked) ruffle combinatorics
  paths     Delannoy paths and orbit representatives
  schwartz  the measure-weighted matrix calculus on Schwartz spaces
  acat      Karoubi-level structure of the two matrix categories
  rep       the module-map linear algebra shared by both module categories
  bmod      finite modules over the combinatorial category of indecomposables
  dmod      finite modules over the tilting combinatorial category
  derived   the three left-derived functors and the semi-orthogonal checks
  kring     Grothendieck rings and the comparison isomorphisms
  verify    named verification suites with machine-readable reports
  cli       command-line surface
"""

__version__ = "0.1.0"
