"""Output checks computed apart from the program.

Nothing here imports leecodes: every check recomputes what it needs
(phi, Lee weights, double-sphere membership, determinants, exact
covers) from the raw numbers, so a fault in the library cannot hide
itself by agreeing with its own checker.  Each check raises CheckError
with a one-line reason when an answer is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod


class CheckError(Exception):
    """A program output failed an independent check."""


def require(ok, msg):
    if not ok:
        raise CheckError(msg)


# --- arithmetic -----------------------------------------------------------

class Hom:
    """phi: Z^n -> Z_t1 x ... x Z_ts given by the images of e_1..e_n."""

    def __init__(self, factors, images):
        self.factors = tuple(factors)
        self.images = tuple(tuple(g) for g in images)
        self.n = len(self.images)
        self.columns = tuple(
            (t, tuple(g[j] for g in self.images)) for j, t in enumerate(self.factors)
        )

    @classmethod
    def from_descriptor(cls, d):
        return cls(d["group"], d["images"])

    @property
    def order(self):
        return prod(self.factors)

    def __call__(self, word):
        return tuple(sum(x * g for x, g in zip(word, col)) % t for t, col in self.columns)

    def in_kernel(self, word):
        return not any(self(word))


def lee_weight(w):
    return sum(abs(x) for x in w)


def lee_weight_mod(w, q):
    return sum(min(x % q, q - x % q) for x in w)


def unit(n, i=0):
    return tuple(1 if j == i else 0 for j in range(n))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def sphere1(n):
    """Lee sphere of radius 1 about O in Z^n."""
    out = [(0,) * n]
    for i in range(n):
        for s in (1, -1):
            out.append(tuple(s if j == i else 0 for j in range(n)))
    return out


def double_sphere1(n):
    """S(O) | S(e_1) for radius 1: the 4n-point tile of DPL(n,4)."""
    e1 = unit(n)
    return sorted(set(sphere1(n)) | {add(w, e1) for w in sphere1(n)})


def lee_ball(n, r):
    """Every nonzero offset of Lee weight <= r in Z^n."""
    return [w for w in product(range(-r, r + 1), repeat=n) if 0 < lee_weight(w) <= r]


def in_double_sphere1(w):
    """True iff w lies in S(O) | S(e_1), radius 1."""
    return lee_weight(w) <= 1 or abs(w[0] - 1) + lee_weight(w[1:]) <= 1


def even_member(l):
    """The even-Lee-weight member of the centre pair {l, l + e_1}."""
    return tuple(l) if lee_weight(l) % 2 == 0 else (l[0] + 1,) + tuple(l[1:])


def det(rows):
    """Exact determinant by rational elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(d)


def rad_odd(n):
    """Product of the distinct odd primes dividing n."""
    out, p, m = 1, 3, n
    while m % 2 == 0:
        m //= 2
    while p * p <= m:
        if m % p == 0:
            out *= p
            while m % p == 0:
                m //= p
        p += 2
    return out * m if m > 1 else out


def admissible(n, q):
    """Linear non-periodic DPL(n,4) over Z_q^n exists iff this holds."""
    return (4 * n) % q == 0 and q % 4 == 0 and q % rad_odd(n) == 0


def prime_exponents(m):
    out, p = {}, 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def partitions(k):
    """Number of integer partitions of k."""
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


# --- decoder --------------------------------------------------------------

def check_decode(hom, word, tile_vector, codeword, expected_l=None):
    """One decoded word of a DPL(n,4) code (double-sphere tile, axis 1)."""
    l = tuple(tile_vector)
    if expected_l is not None:
        # expected_l was built from basis rows checked to lie in the kernel
        require(l == tuple(expected_l), f"channel word decoded to {l[:4]}..., "
                                        f"sent {tuple(expected_l)[:4]}...")
    else:
        require(hom.in_kernel(l), "tile vector is not in ker(phi)")
    require(len(l) == len(word), "tile vector has the wrong length")
    require(in_double_sphere1(sub(word, l)), "word minus tile vector leaves the tile")
    require(tuple(codeword) == even_member(l),
            "codeword is not the even-weight member of {l, l + e1}")


def check_modular(result, expected_l, q):
    """decode_modular must equal the integer codeword reduced mod q."""
    want = tuple(x % q for x in even_member(expected_l))
    require(tuple(result) == want, "modular codeword differs from the integer one mod q")


# --- certification --------------------------------------------------------

def check_kernel_basis(hom, rows, det_abs):
    require(len(rows) == hom.n and all(len(r) == hom.n for r in rows),
            "kernel basis is not n x n")
    require(all(hom.in_kernel(r) for r in rows), "a kernel basis row is not in ker(phi)")
    require(abs(det(rows)) == hom.order == det_abs, "|det(basis)| != |G|")


def check_kernel_points(hom, bound, points):
    """Exactly the kernel points of the box, by a brute-force scan."""
    want = [w for w in product(range(-bound, bound + 1), repeat=hom.n) if hom.in_kernel(w)]
    require(list(map(tuple, points)) == want, "kernel points in the box differ")


def check_codewords_mod_q(hom, q, even_weight, words):
    require(len(words) == q ** hom.n // hom.order, "|codewords mod q| != q^n/|G|")
    require(len(set(map(tuple, words))) == len(words), "repeated codeword mod q")
    e1 = unit(hom.n)
    for x in words:
        require(all(0 <= a < q for a in x), "codeword is not reduced mod q")
        if even_weight:
            require(lee_weight_mod(x, q) % 2 == 0, "odd Lee weight codeword")
            require(hom.in_kernel(x) or hom.in_kernel(sub(x, e1)),
                    "codeword is neither l nor l + e1 for a kernel vector l")
        else:
            require(hom.in_kernel(x), "codeword is not in ker(phi)")


def check_min_distance(codewords, inner, want):
    """Lee-ball probe: distance `want` is the least on the inner window."""
    cw = set(map(tuple, codewords))
    n = len(next(iter(cw)))
    near = lee_ball(n, want - 1)
    ring = [w for w in lee_ball(n, want) if lee_weight(w) == want]
    centre = [c for c in cw if all(abs(x) <= inner for x in c)]
    require(centre, "no codeword in the inner window")
    for c in centre:
        require(not any(add(c, w) in cw for w in near),
                f"two codewords closer than {want} near {c}")
    require(any(add(c, w) in cw for c in centre for w in ring),
            f"no two codewords at distance exactly {want}")


def check_cover(centers, tile, R):
    """Every point of [-R,R]^n lies in exactly one translate of tile."""
    seen = set()
    for c in centers:
        for v in tile:
            p = add(c, v)
            if all(-R <= x <= R for x in p):
                require(p not in seen, f"{p} is covered twice")
                seen.add(p)
    require(len(seen) == (2 * R + 1) ** len(tile[0]), "window not covered")


def check_distinct(center_sets):
    sets = [frozenset(map(tuple, s)) for s in center_sets]
    require(len(set(sets)) == len(sets), "distinct bit strings gave equal centre sets")


def check_double_cross(hom, n):
    """Bijective on the 8n-point double cross (doubled first coordinate)."""
    mod = hom.group.order
    h = hom.half_image[0]
    g = [im[0] for im in hom.images]
    imgs = set()
    for v in double_sphere1(n):
        for d in (2 * v[0], 2 * v[0] + 1):
            imgs.add((d * h + sum(x * gi for x, gi in zip(v[1:], g[1:]))) % mod)
    require(mod == 8 * n and len(imgs) == 8 * n, "phi is not bijective on the double cross")
    require(any(gcd(gi, mod) == 1 for gi in g[1:]), "no phi(e_i), i >= 2, generates G")


# --- search and small CLI answers ----------------------------------------

def check_found(factors, images, tile):
    hom = Hom(factors, images)
    require(hom.order == len(tile), "|G| != |V|")
    require(len({hom(w) for w in tile}) == len(tile), "phi is not a bijection on the tile")


def check_descriptor(d):
    """A DPL(n,4) descriptor: bijective on the tile, basis of the kernel."""
    hom = Hom.from_descriptor(d)
    n = d["n"]
    tile = double_sphere1(n)
    require(hom.n == n and hom.order == len(tile) == 4 * n, "|G| != 4n")
    require(len({hom(w) for w in tile}) == len(tile), "phi is not bijective on the tile")
    check_kernel_basis(hom, [tuple(r) for r in d["basis"]], hom.order)
    return hom


def check_groups(order, groups):
    want = prod(partitions(e) for e in prime_exponents(order).values())
    require(len(groups) == want, f"{len(groups)} groups of order {order}, expected {want}")
    keys = set()
    for factors in groups:
        require(prod(factors) == order, f"group {factors} has the wrong order")
        require(all(len(prime_exponents(t)) == 1 for t in factors),
                f"group {factors} has a factor that is not a prime power")
        keys.add(tuple(sorted(factors)))
    require(len(keys) == len(groups), "isomorphic groups listed twice")



def check_status(status, want):
    require(status == want, f"search settled as {status}, expected {want}")


def check_verify_payload(p, want_distance):
    require(p["bijection"] is True and p["window_cover"] is True and p["verified"] is True,
            f"verify did not certify the code: {p}")
    require(p["min_distance"] == want_distance,
            f"min distance {p['min_distance']}, expected {want_distance}")


def check_admissible(n, q, answer):
    require(answer == admissible(n, q), f"admissible({n}, {q}) answered {answer}")


def tile_points(kind, n, r):
    """Lee sphere ('sphere') or double sphere S(O) | S(e_1) of radius r."""
    box = product(range(-r - 1, r + 2), repeat=n)
    if kind == "sphere":
        return [w for w in box if lee_weight(w) <= r]
    return [w for w in box if lee_weight(w) <= r or abs(w[0] - 1) + lee_weight(w[1:]) <= r]
