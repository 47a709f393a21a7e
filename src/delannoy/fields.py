"""Coefficient fields: the rationals (default) and prime fields.

All matrix coefficients in the engine live in one of these fields.  A rational
is a Python int when it is an integer and a `fractions.Fraction` otherwise;
prime-field elements are ints in [0, p).  The field object carries the
arithmetic so that the linear algebra and the matrix calculus stay
field-generic.
"""

import operator
from fractions import Fraction


class Rationals:
    """The field of rational numbers.

    The field builds every integer it makes as an int (zero, one, `of_int`,
    the inverse of +-1, `parse` of an integer), so elimination with unit
    pivots never leaves the ints; a non-integral value is an exact Fraction.
    Arithmetic on a Fraction may still give an integral Fraction, which
    compares and hashes equal to the int.
    """

    name = "q"
    characteristic = 0

    zero = 0
    one = 1

    def of_int(self, n):
        return operator.index(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def parse(self, s):
        f = Fraction(s)
        return f.numerator if f.denominator == 1 else f

    def format(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


def _is_prime(n):
    """Whether n is prime, by Miller-Rabin to the bases 2, 3, ..., 41: exact
    below 3.317e24 (Sorenson and Webster), so a larger n is refused."""
    if n >= 3317044064679887385961981:
        raise ValueError("primality is decided below 3317044064679887385961981")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d * 2**s, d odd
    for a in bases:
        powers = [pow(a, (n - 1) >> s, n)]     # a^(2^i d) mod n for i < s
        while len(powers) < s:
            powers.append(powers[-1] ** 2 % n)
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


class PrimeField:
    """The field Z/p for a prime p, with int elements in [0, p)."""

    characteristic = None  # set per instance

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        self.name = f"p{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def parse(self, s):
        f = Fraction(s)
        return self.mul(self.of_int(f.numerator), self.inv(self.of_int(f.denominator)))

    def format(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = Rationals()


def field_from_spec(spec):
    """Parse a field spec string: 'q' for the rationals, 'p<prime>' for Z/p."""
    if spec == "q":
        return QQ
    if spec.startswith("p") and spec[1:].isdigit():
        return PrimeField(int(spec[1:]))
    raise ValueError(f"bad field spec {spec!r}; want 'q' or 'p<prime>'")
