"""Finite Abelian groups as products of cyclic groups.

A group is an ordered tuple of cyclic factor sizes; elements are reduced
residue tuples of the same length.  The trivial group is the empty
product.  Ranking follows the nested (Horner) evaluation of the
lexicographic order over the factors.  Aut(G)-orbits of elements are
keyed by height sequences and need prime-power factors.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm, prod

from .errors import DomainError, StructuralError, _Frozen


class FiniteAbelianGroup(_Frozen):
    _fields = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", tuple(factors))
        if any(type(t) is not int for t in self.factors):
            raise DomainError(f"cyclic factors must be integers: {self.factors}")
        if any(t < 2 for t in self.factors):
            raise DomainError(f"cyclic factors must be >= 2: {self.factors}")

    @property
    def order(self):
        return prod(self.factors)

    @property
    def identity(self):
        return (0,) * len(self.factors)

    def contains(self, a):
        return len(a) == len(self.factors) and all(
            type(x) is int and 0 <= x < t for x, t in zip(a, self.factors)
        )

    def add(self, a, b):
        return tuple((x + y) % t for x, y, t in zip(a, b, self.factors))

    def neg(self, a):
        return tuple((-x) % t for x, t in zip(a, self.factors))

    def elements(self):
        """All elements in lexicographic order."""
        return product(*(range(t) for t in self.factors))


def element_order(g, G):
    """Least m >= 1 with m*g = identity."""
    if not G.contains(g):
        raise StructuralError(f"{g} is not an element of {G.factors}")
    return lcm(*(t // gcd(t, x) for t, x in zip(G.factors, g)))


def has_generator(elements, G):
    """True iff one of the elements, each known to lie in G, has order |G|.

    g has order lcm_j t_j / gcd(g_j, t_j) over the factors t_j, which is
    |G| = prod_j t_j exactly when lcm_j t_j = |G| (the factors are
    pairwise coprime) and every g_j is prime to t_j; each gcd is at
    least 1, so their product is 1 iff all are.  No contains check: the
    elements must already be valid, as a Homomorphism's images are.
    """
    t = G.factors
    return lcm(*t) == G.order and any(prod(map(gcd, g, t)) == 1 for g in elements)


def factorize(m):
    """Prime factorization {p: e} of m >= 1 by trial division, primes ascending."""
    if m < 1:
        raise DomainError(f"can only factor m >= 1, got {m}")
    out = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _partitions_desc(k):
    """Partitions of k as tuples with decreasing parts, largest part first."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(k, k)


def enumerate_abelian_groups(m):
    """One representative per isomorphism class of Abelian groups of order m.

    Canonical order: primes ascending, exponent partitions in decreasing
    part order; the resulting list is sorted lexicographically by factor
    sequence.
    """
    if m < 1:
        raise DomainError(f"order must be >= 1, got {m}")
    per_prime = []
    for p, e in factorize(m).items():
        per_prime.append([tuple(p ** part for part in pt) for pt in _partitions_desc(e)])
    groups = []
    for combo in product(*per_prime):
        factors = tuple(f for chunk in combo for f in chunk)
        groups.append(FiniteAbelianGroup(factors))
    return sorted(groups, key=lambda G: G.factors)


def _factor_primes(G):
    """The prime of each cyclic factor; StructuralError unless each is a prime power."""
    primes = []
    for t in G.factors:
        f = factorize(t)
        if len(f) != 1:
            raise StructuralError(f"factor {t} of {G.factors} is not a prime power")
        primes.extend(f)
    return primes


def _valuation(x, p):
    """Exponent of the prime p in x != 0."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _height_key(g, factors, primes):
    """Per prime p, ascending: the heights of g_p, p*g_p, p^2*g_p, ... down to 0."""
    key = []
    for p in sorted(set(primes)):
        part = [(x, t) for x, t, q in zip(g, factors, primes) if q == p]
        heights = []
        while any(x for x, _ in part):
            heights.append(min(_valuation(x, p) for x, _ in part if x))
            part = [(x * p % t, t) for x, t in part]
        key.append(tuple(heights))
    return tuple(key)


def aut_orbit_key(g, G):
    """A key that two elements of G share iff an automorphism maps one to the other.

    Aut(G) is the product of the automorphism groups of the p-primary
    parts, and in a finite Abelian p-group two elements lie in one orbit
    iff their height (Ulm) sequences agree (Kaplansky, Infinite Abelian
    Groups).  The height of a nonzero x in a product of cyclic p-power
    factors is the least v_p(x_j) over its nonzero coordinates.  The
    factors must be prime powers, as enumerate_abelian_groups yields.
    """
    if not G.contains(g):
        raise StructuralError(f"{g} is not an element of {G.factors}")
    return _height_key(g, G.factors, _factor_primes(G))


def aut_orbit_representatives(G):
    """The lex-least element of each Aut(G)-orbit, in lexicographic order.

    Multiplying one coordinate by a unit is an automorphism, so every
    coordinate of a lex-least orbit member is 0 or a power of its
    factor's prime: only those prod(e_j + 1) tuples are scanned, where
    the factor t_j is p^e_j, not all |G| elements.
    """
    primes = _factor_primes(G)
    candidates = [[0] + [p ** k for k in range(_valuation(t, p))]
                  for t, p in zip(G.factors, primes)]
    seen = set()
    reps = []
    for g in product(*candidates):
        key = _height_key(g, G.factors, primes)
        if key not in seen:
            seen.add(key)
            reps.append(g)
    return reps


def lex_rank(a, G):
    """1-based rank of a in the lexicographic element order (Horner form)."""
    if not G.contains(a):
        raise StructuralError(f"{a} is not an element of {G.factors}")
    acc = 0
    for t, x in zip(G.factors, a):
        acc = acc * t + x
    return acc + 1

