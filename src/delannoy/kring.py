"""Grothendieck rings on the weight bases and the comparison maps.

Three rings share the free Z-module on weights: KC (simple basis of the
semisimple category, product by unrestricted ruffles), KA (split classes of
the indecomposables, product by restricted ruffles), and KD (simple basis of
the tilting-side abelian category, product transported through the tilting
classes).  The triple decomposition of the module category's ring is the
Euler-characteristic triple of the three derived functors.
"""

from dataclasses import dataclass

from .derived import euler_characteristics
from .dmod import tilting_support
from .weights import flat, ruffle_counts, sort_key

KC, KA, KD = "kc", "ka", "kd"

# The derived degrees `kb_decompose` reads; `euler_characteristics` raises
# when an amplitude reaches them.
_KB_MAX_DEG = 6


@dataclass(frozen=True)
class KElement:
    ring: str
    coeffs: tuple  # sorted tuple of (weight, int)

    @staticmethod
    def make(ring, coeffs):
        clean = tuple(sorted(((w, c) for w, c in dict(coeffs).items() if c),
                             key=lambda wc: sort_key(wc[0])))
        return KElement(ring, clean)

    def as_dict(self):
        return dict(self.coeffs)

    def __add__(self, other):
        self._check(other)
        out = self.as_dict()
        for w, c in other.coeffs:
            out[w] = out.get(w, 0) + c
        return KElement.make(self.ring, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, n):
        return KElement.make(self.ring, {w: n * c for w, c in self.coeffs})

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("ring tag mismatch")

    def __repr__(self):
        if not self.coeffs:
            return f"KElement({self.ring}, 0)"
        body = " + ".join(f"{c}*[{w or 'e'}]" for w, c in self.coeffs)
        return f"KElement({self.ring}, {body})"


def basis_element(ring, lam, c=1):
    return KElement.make(ring, {lam: c})


def _convolve(a_coeffs, b_coeffs, restricted):
    out = {}
    for la, ca in a_coeffs:
        for mu, cb in b_coeffs:
            for w, n in ruffle_counts(la, mu, restricted).items():
                out[w] = out.get(w, 0) + n * ca * cb
    return out


def tilting_class(lam):
    """[T_lam] expanded in the simple basis of KD (multiplicity free)."""
    return KElement.make(KD, {mu: 1 for mu in tilting_support(lam)})


def i_map(a):
    """KA -> KD: sends the class of an indecomposable to its tilting class."""
    if a.ring != KA:
        raise ValueError("i is defined on the KA ring")
    out = KElement.make(KD, {})
    for lam, c in a.coeffs:
        out = out + tilting_class(lam).scale(c)
    return out


def _back_substitute(x, image):
    """The KA element a with image(a) = x, for a map that is unitriangular
    on the basis (image of [lam] is [lam] plus shorter weights): peel off the
    longest weight first."""
    rest = x
    out = {}
    while not rest.is_zero():
        lam, c = rest.coeffs[-1]  # coeffs are sorted by sort_key
        out[lam] = out.get(lam, 0) + c
        rest = rest - image(basis_element(KA, lam, c))
    return KElement.make(KA, out)


def i_inverse(d):
    """KD -> KA by unitriangular back-substitution on the tilting classes."""
    if d.ring != KD:
        raise ValueError("i^-1 is defined on the KD ring")
    return _back_substitute(d, i_map)


def phi_map(a):
    """KA -> KC: [M_lam] -> [L_lam] + [L_{lam flat}]."""
    if a.ring != KA:
        raise ValueError("phi is defined on the KA ring")
    out = {}
    for lam, c in a.coeffs:
        out[lam] = out.get(lam, 0) + c
        fl = flat(lam)
        if fl is not None:
            out[fl] = out.get(fl, 0) + c
    return KElement.make(KC, out)


def j_map(d):
    """KD -> KC: the composite phi o i^-1; [T_lam] -> [L_lam] + [L_{lam flat}]."""
    return phi_map(i_inverse(d))


def mult(a, b):
    """The ring product; KD multiplication is transported through i."""
    a._check(b)
    if a.ring == KC:
        return KElement.make(KC, _convolve(a.coeffs, b.coeffs, False))
    if a.ring == KA:
        return KElement.make(KA, _convolve(a.coeffs, b.coeffs, True))
    if a.ring == KD:
        return i_map(mult(i_inverse(a), i_inverse(b)))
    raise ValueError(f"unknown ring {a.ring!r}")


def kb_decompose(m):
    """The triple image of a finite module's class: (KC, KD, Z).

    Euler characteristics of the three derived functors up to degree
    `_KB_MAX_DEG`; the window must be large enough for the amplitudes, which
    `euler_characteristics` enforces.
    """
    chi_phi, chi_psi, chi_theta = euler_characteristics(m, _KB_MAX_DEG)
    return (KElement.make(KC, chi_phi), KElement.make(KD, chi_psi), chi_theta)
