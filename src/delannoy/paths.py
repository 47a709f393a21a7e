"""Delannoy paths and the path <-> orbit dictionary.

An (m, n) Delannoy path is a word over the steps U (up), R (right), D
(diagonal) with m R-or-D steps and n U-or-D steps.  Paths parametrize the
orbits of order-preserving bijections of the line acting on pairs of
increasing tuples: walking the line, a target point steps up, a source point
steps right, and a shared point steps diagonally.

Read the other way, a path interleaves two sequences with collisions
(`interleavings`): the steps of two orbit paths in the tensor product of
matrices, and the letters of two weights in a (marked) ruffle.
"""

from functools import lru_cache

UP = "U"
RIGHT = "R"
DIAG = "D"


def path_m(path):
    """Number of source points (right + diagonal steps)."""
    return path.count(RIGHT) + path.count(DIAG)


def path_n(path):
    """Number of target points (up + diagonal steps)."""
    return path.count(UP) + path.count(DIAG)


@lru_cache(maxsize=None)
def delannoy(m, n):
    """The Delannoy number D(m, n) by the three-term recurrence."""
    if m < 0 or n < 0:
        return 0
    if m == 0 or n == 0:
        return 1
    return delannoy(m - 1, n) + delannoy(m, n - 1) + delannoy(m - 1, n - 1)


@lru_cache(maxsize=None)
def enumerate_paths(m, n):
    """All (m, n) Delannoy paths, lexicographic with U < R < D."""
    if m < 0 or n < 0:
        raise ValueError("negative path shape")
    if m == 0 and n == 0:
        return ("",)
    out = []
    if n > 0:
        out.extend(UP + p for p in enumerate_paths(m, n - 1))
    if m > 0:
        out.extend(RIGHT + p for p in enumerate_paths(m - 1, n))
    if m > 0 and n > 0:
        out.extend(DIAG + p for p in enumerate_paths(m - 1, n - 1))
    return tuple(out)


def interleavings(a, b):
    """Every interleaving of the sequences a and b, collisions allowed.

    One per (len(b), len(a)) Delannoy path, in `enumerate_paths` order: the
    list of its steps as pairs (x, y), where an up step takes the next item
    of a as x, a right step the next item of b as y, a diagonal step both,
    and a side that takes nothing reads "".
    """
    for path in enumerate_paths(len(b), len(a)):
        next_a, next_b = iter(a).__next__, iter(b).__next__
        yield [("" if s == RIGHT else next_a(), "" if s == UP else next_b())
               for s in path]


def path_of_pair(y, x):
    """The path of a configuration: y the target tuple, x the source tuple.

    Both tuples must be strictly increasing; coordinates may be any mutually
    comparable exact numbers.  The result is constant on orbits of
    order-preserving bijections of the line.
    """
    i = j = 0
    steps = []
    while i < len(y) or j < len(x):
        if j == len(x) or (i < len(y) and y[i] < x[j]):
            steps.append(UP)
            i += 1
        elif i == len(y) or x[j] < y[i]:
            steps.append(RIGHT)
            j += 1
        else:
            steps.append(DIAG)
            i += 1
            j += 1
    return "".join(steps)


def representative(path):
    """Integer configuration (y, x) realizing the path.

    Consecutive integers, one per step; diagonal steps force coincidences.
    Round-trips through path_of_pair.
    """
    y, x = [], []
    for pos, step in enumerate(path, start=1):
        if step in (UP, DIAG):
            y.append(pos)
        if step in (RIGHT, DIAG):
            x.append(pos)
    return tuple(y), tuple(x)


def reflect(path):
    """Reflection across the diagonal: swaps up and right steps."""
    return path.translate(str.maketrans("UR", "RU"))


def visited_vertices(path):
    """Lattice points (right-count, up-count) visited by the path."""
    h = v = 0
    pts = {(0, 0)}
    for s in path:
        if s == UP:
            v += 1
        elif s == RIGHT:
            h += 1
        else:
            h += 1
            v += 1
        pts.add((h, v))
    return pts


def is_quasi_diagonal(path):
    """True iff an (n, n) path passes through every diagonal vertex (j, j)."""
    m, n = path_m(path), path_n(path)
    if m != n:
        raise ValueError("quasi-diagonality is defined for square paths only")
    pts = visited_vertices(path)
    return all((j, j) in pts for j in range(n + 1))
