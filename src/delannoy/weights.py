"""Weight words over the two-letter alphabet {black, white}.

A weight is a finite word in the letters 'b' (black) and 'w' (white); the
empty word is allowed and rendered "e" in CLI contexts.  Weights index the
simple, indecomposable, standard, costandard, projective, injective and
tilting objects throughout the engine.  This module also provides the
generator rule between them, the complexes of weight symbols built on it
(projective resolutions and tilting complexes alike), and the (marked)
ruffles that underlie both tensor product rules: a ruffle is a Delannoy
path interleaving the letters of two weights.  `marked_ruffles` lists them,
as the definition; the tensor rules only need how many ruffles have each
output weight, and `ruffle_counts` counts them by a recursion on the last
letters, with no ruffle built.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import MappingProxyType

from .paths import interleavings

BLACK = "b"
WHITE = "w"

EMPTY_MARK = ""  # the "empty" marking of a neutral collision


def parse_weight(s):
    """Parse the CLI grammar `e | [bw]+` into a weight string."""
    if s == "e":
        return ""
    if s and all(c in "bw" for c in s):
        return s
    raise ValueError(f"bad weight literal {s!r}; want 'e' or a word in b/w")


def format_weight(lam):
    return lam if lam else "e"


def flat(lam):
    """Delete the final letter; None for the empty weight.

    Objects indexed by an absent weight are zero by convention, so callers
    treat None as "the zero object".
    """
    return lam[:-1] if lam else None


def dual(lam):
    """Interchange black and white letters (an involution)."""
    return lam.translate(str.maketrans("bw", "wb"))


def is_alternating(lam):
    """True iff no two equal adjacent letters ('ww'/'bb'-free)."""
    return all(a != b for a, b in zip(lam, lam[1:]))


def sort_key(lam):
    """Length-then-lexicographic order with b < w; gives stable outputs."""
    return (len(lam), lam)


def enumerate_weights(max_len):
    """All 2^(L+1) - 1 weights of length <= max_len, in sort_key order."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out = []
    for n in range(max_len + 1):
        out.extend("".join(t) for t in product("bw", repeat=n))
    return out


def alternating_suffixes(max_len):
    """Nonempty alternating words of length <= max_len."""
    return [w for w in enumerate_weights(max_len) if w and is_alternating(w)]


def black_tail(lam):
    """Split lam = mu + 'b'*n with mu not ending in black; returns (mu, n)."""
    n = 0
    while lam[: len(lam) - n].endswith(BLACK):
        n += 1
    return lam[: len(lam) - n], n


def gen_kind(lam, nu):
    """The generator spanning Hom between the indecomposables lam -> nu
    (equally between the projective modules, or the tilting modules).

    'id' (lam = nu), 'd' (the downward generator, lam = nu + w), 'u' (the
    upward generator, nu = lam + b), 'ud' (their composite, lam = kappa + w
    and nu = kappa + b), or None when the Hom vanishes; every such Hom has
    dimension 0 or 1.
    """
    if lam == nu:
        return "id"
    if lam == nu + WHITE:
        return "d"
    if nu == lam + BLACK:
        return "u"
    if lam.endswith(WHITE) and nu == lam[:-1] + BLACK:
        return "ud"
    return None


def hom_dim_pattern(lam, nu):
    """dim Hom between the indecomposables of weights lam -> nu (0 or 1)."""
    return int(gen_kind(lam, nu) is not None)


def composite_unit(lam, mu, nu):
    """Coefficient of the generator lam -> nu in (mu -> nu) o (lam -> mu).

    The composite of two generators is the generator exactly when all three
    Hom spaces are nonzero, and zero otherwise: 0 or 1 (machine-checked on
    the modules in the tests).
    """
    return int(gen_kind(lam, mu) is not None and gen_kind(mu, nu) is not None
               and gen_kind(lam, nu) is not None)


@dataclass
class WeightComplex:
    """Bounded complex of weight symbols with scalar generator entries.

    terms maps a cohomological degree d to its list of weights; diffs[d] is
    the differential from degree d to d + 1 as {(dst_slot, src_slot): coeff},
    the coefficient of the generator between the two slots' weights.  The
    symbols stand for projective modules (a resolution, in degrees 0, -1,
    ...) or for tilting modules: in both categories the generators span the
    Hom spaces and compose by `composite_unit`.
    """

    terms: dict
    diffs: dict
    field: object

    def validate(self):
        """Check that every entry joins two weights with a generator between
        them and that d o d vanishes under `composite_unit`; returns self."""
        f = self.field
        for d, first in self.diffs.items():
            for j, i in first:
                if gen_kind(self.terms[d][i], self.terms[d + 1][j]) is None:
                    raise ValueError(f"no generator {self.terms[d][i]!r} -> "
                                     f"{self.terms[d + 1][j]!r} at degree {d}")
            total = {}
            for (j, k), b in self.diffs.get(d + 1, {}).items():
                for (k2, i), a in first.items():
                    if k2 == k and composite_unit(self.terms[d][i],
                                                  self.terms[d + 1][k],
                                                  self.terms[d + 2][j]):
                        total[(j, i)] = f.add(total.get((j, i), f.zero),
                                              f.mul(b, a))
            if not all(f.is_zero(t) for t in total.values()):
                raise ValueError(
                    f"differential does not square to zero at degree {d}")
        return self


@dataclass(frozen=True)
class MarkedRuffle:
    """A pair of order injections covering [l], plus collision markings.

    rho1 and rho2 are strictly increasing 1-indexed position tuples for the
    letters of the two factors; their images cover every position.  rho3
    marks each neutral collision (positions hit by both factors with unequal
    letters) with 'b', 'w', or the empty mark ''.
    """

    rho1: tuple
    rho2: tuple
    rho3: tuple  # sorted tuple of (position, mark)


def marked_ruffles(lam, mu, restricted=False):
    """All marked ruffles of lam and mu with their output weights.

    Ruffles are the interleavings of the two words (`paths.interleavings`),
    a diagonal step being a collision; equal-letter collisions keep their
    letter, neutral ones take each of the three marks.  With `restricted` a
    neutral collision in the final position may not take the empty mark
    (this is the variant that computes tensor products of indecomposables
    rather than simples).
    """
    out = []
    for walk in interleavings(lam, mu):
        rho1, rho2, neutral, letters = [], [], [], []
        for p, (x, y) in enumerate(walk, 1):
            if x:
                rho1.append(p)
            if y:
                rho2.append(p)
                if x and x != y:
                    neutral.append(p)
            letters.append(x or y)
        rho1, rho2 = tuple(rho1), tuple(rho2)
        marks = [(BLACK, WHITE) if restricted and p == len(walk)
                 else (BLACK, WHITE, EMPTY_MARK) for p in neutral]
        for marking in product(*marks):
            for p, mark in zip(neutral, marking):
                letters[p - 1] = mark
            out.append((MarkedRuffle(rho1, rho2, tuple(zip(neutral, marking))),
                        "".join(letters)))
    return out


@lru_cache(maxsize=4096)
def _ruffle_counts(lam, mu):
    """{output weight: number of marked ruffles of lam and mu}, read-only.

    Counted by the last step of the walk, with a = lam[-1] and b = mu[-1]:
    a alone (the ruffles of lam[:-1] and mu, then a), b alone (of lam and
    mu[:-1], then b), or a collision (of lam[:-1] and mu[:-1], then a when
    a = b, else each of the marks 'b', 'w' and '').
    """
    if not lam or not mu:
        return MappingProxyType({lam + mu: 1})
    a, b = lam[-1], mu[-1]
    steps = [(_ruffle_counts(lam[:-1], mu), a),
             (_ruffle_counts(lam, mu[:-1]), b)]
    steps += [(_ruffle_counts(lam[:-1], mu[:-1]), m)
              for m in ((a,) if a == b else (BLACK, WHITE, EMPTY_MARK))]
    out = {}
    for counts, letter in steps:
        for w, c in counts.items():
            w += letter
            out[w] = out.get(w, 0) + c
    return MappingProxyType(out)


def ruffle_counts(lam, mu, restricted=False):
    """{output weight: number of marked ruffles of lam and mu}, counted
    rather than listed: `Counter` of the weights of `marked_ruffles`.

    The restricted ruffles are all of them except the walks that end in a
    neutral collision (a != b) marked '': those are the ruffles of lam[:-1]
    and mu[:-1] with nothing appended, and are subtracted.
    """
    counts = _ruffle_counts(lam, mu)
    if not (restricted and lam and mu and lam[-1] != mu[-1]):
        return counts
    out = dict(counts)
    for w, c in _ruffle_counts(lam[:-1], mu[:-1]).items():
        out[w] -= c
        if not out[w]:
            del out[w]
    return out


def tensor_summands(lam, mu, restricted):
    """Multiset (sorted tuple) of output weights of the (marked) ruffles."""
    counts = ruffle_counts(lam, mu, restricted)
    return tuple(w for w in sorted(counts, key=sort_key)
                 for _ in range(counts[w]))
