"""Non-regular double-cross tilings on the half-integer lattice.

Points of the lattice generated by (1/2)e_1, e_2, ..., e_n are stored
exactly with a doubled first coordinate; no floating point anywhere.
The double cross W = V | (V + (1/2)e_1) is checked in closed form,
without listing V: phi maps V + (1/2)e_1 onto phi(V) + h, and the 4n
images of V unpack sums of at most two packed images phi(e_i) (see
verify_nonregular), so one set of them and its shift by h decide the
bijection on W.  The n=3 family shifts diagonal connectivity
components of the tiling per a finite bit string, yielding
pairwise-distinct integer-centered window tilings and, through the
even-weight transversal, non-lattice diameter-4 codes on the window;
its half-lattice map and tile are built once per process, on first use,
and its centers repeat with period 4 along x_1, so one period of the
kernel walk gives every row of the window and the tiling's columns,
which the cover check and the code both read; the cover check scatters
one period of x_1-slabs and copies the rest.
"""

from __future__ import annotations

import json
from functools import cache, cached_property
from itertools import compress, repeat
from math import lcm
from operator import add, and_, itemgetter

from .errors import DimensionError, DomainError, StructuralError, WindowError, _Frozen
from .groups import FiniteAbelianGroup, element_order, has_generator
from .lee import _even_weight_members, double_sphere, double_sphere_size, word_length
from .tiling import (Homomorphism, KernelBasis, _double_cross_images, _exact_cover,
                     _kernel_points, lattice_basis, touch_box)

K1 = "K1"
K2 = "K2"


def construct_double_cross_hom(n):
    """The Z_{8n} homomorphism bijective on the 8n-point double-cross W.

    Requires n >= 2 and n not a power of 2 (write n = 2^t(2k+1), k > 0).
    With low = 2^t and odd = 2k+1 the images, in index order and mod 8n,
    are 2*odd, then (4i-2)*odd for i = 2..low, then for each j = 1..k a
    run of 2*low images j + 4i*odd, i = 0..2*low-1; the half image is odd.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    low = n & -n  # 2^t
    odd = n // low  # 2k + 1
    if odd == 1:
        raise DomainError(f"n = {n} is a power of 2; no such tiling is known")
    mod = 8 * n
    G = FiniteAbelianGroup((mod,))
    images = [2 * odd] + [(4 * i - 2) * odd for i in range(2, low + 1)]
    for j in range(1, odd // 2 + 1):
        images += [j + 4 * i * odd for i in range(2 * low)]
    return Homomorphism(G, tuple((g % mod,) for g in images), half_image=(odd % mod,))


def half_lattice_hom(hom):
    """phi on the half lattice, as a homomorphism acting on doubled words.

    A point (x_1, ..., x_n) with x_1 in (1/2)Z is stored as
    (2*x_1, x_2, ..., x_n), so its image is 2*x_1 * h + sum x_i * g_i
    with h the image of (1/2)e_1: the images are (h, g_2, ..., g_n).
    """
    if hom.half_image is None:
        raise StructuralError("homomorphism has no half image")
    return Homomorphism(hom.group, (hom.half_image,) + hom.images[1:])


def verify_nonregular(hom, n):
    """Both sufficient-condition checks for a non-regular tiling.

    True iff phi is bijective on the 8n-point W = V | (V + (1/2)e_1),
    V = double_sphere(n, 1, 1), and some phi(e_i), i >= 2, generates
    the order-8n group.  On the half lattice, with h the image of
    (1/2)e_1 and 2h = phi(e_1), a point v of V maps to phi(v) and v +
    (1/2)e_1 to phi(v) + h.  So phi is bijective on W iff |G| = 8n,
    phi is injective on the 4n points of V, and phi(V) does not meet
    phi(V) + h.  V is never listed: V = {0, 2e_1} | {+-e_i} | {e_1 +-
    e_i : i >= 2}, so its images unpack the packed sums 0, (2 mod L)
    p_1, p_i, (L - 1) p_i, p_1 + p_i and p_1 + (L - 1) p_i of p_i =
    hom.packed[i - 1], and phi(V) + h unpacks them plus the packed h.  A
    field of those sums is at most 2(L - 1)(t - 1) + (t - 1), below the
    2^width > 2 hom.n (L - 1)(t - 1) of the packed layout for hom.n >=
    2, so no field carries (tiling._double_cross_images).  The half
    image is checked first, then n >= 1; |G| is compared with 8n in
    closed form, and n with the domain, before anything of size n is
    built.  The generator test, groups.has_generator, takes gcds of the
    images' coordinates and computes no element order.
    """
    if hom.half_image is None:
        raise StructuralError("homomorphism has no half image")
    G = hom.group
    if 2 * double_sphere_size(n, 1) != G.order:
        return False
    if n > hom.n:
        raise DimensionError(f"the double cross of Z^{n} is outside the domain Z^{hom.n}")
    image, shifted = _double_cross_images(hom, n)
    image = set(image)
    if len(image) != G.order // 2 or not image.isdisjoint(shifted):
        return False
    return has_generator(hom.images[1:], G)


@cache
def _n3():
    """(half, tile): the n=3 half-lattice map and its tile double_sphere(3,
    1, 1) as a tuple, built on first use and kept for the process, so the
    one basis the map derives, the walk's lex_hnf, is derived once."""
    return half_lattice_hom(construct_double_cross_hom(3)), tuple(double_sphere(3, 1, 1))


def half_kernel_basis():
    """Kernel basis of the n=3 double-cross homomorphism inside M.

    Rows: -(1/2)e_1 + 3e_2, 24e_2, 13e_2 - e_3, in doubled-first
    coordinates.  They are proved a kernel basis with |det| = |G| = 24,
    which is 12 in cube volume: a KernelBasis of the doubled rows and
    det_abs 12.
    """
    half, _ = _n3()
    kb = lattice_basis(half, ((-1, 3, 0), (0, 24, 0), (0, 13, -1)))
    return KernelBasis(rows=kb.rows, det_abs=kb.det_abs // 2)


def component_index_n3(center):
    """Classify a tile center of the n=3 tiling into K1 or a K2 component.

    The rule only consults x_2 + x_3 (the regions are prisms along the
    first axis): K1 iff (x_2 + x_3) mod 6 in {0, 1, 5}, otherwise K2
    with component index floor((x_2 + x_3 - 2) / 6).
    """
    if len(center) != 3:
        raise DimensionError(f"center {center} does not have 3 coordinates")
    s = center[1] + center[2]
    if s % 6 in (0, 1, 5):
        return (K1, None)
    return (K2, (s - 2) // 6)


class ShiftedWindowTiling(_Frozen):
    """The centers of a shifted tiling that can touch [-R,R]^3.

    columns, the centers as three tuple columns, is what verify_cover
    and code_from_window_tiling share.  shifted_tiling_n3 builds it from
    its period rows and hands it over; a tiling built by hand derives it
    from the centers on first use and keeps it.  Like the bases a
    Homomorphism keeps, it is outside ==, hash, repr and to_dict, and
    pickle and deepcopy carry it along.  to_json writes the centers
    tuple as it is: json writes a tuple as an array, so the text is
    to_dict's, with no list built per center.
    """

    _fields = ("R", "bits", "centers")

    def __init__(self, R: int, bits: str, centers: tuple):
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "bits", bits)
        # integer 3-tuples, sorted lexicographically
        object.__setattr__(self, "centers", centers)

    @cached_property
    def columns(self):
        """tuple(zip(*centers)), built one column at a time: zip(*centers)
        would hold an iterator per center.  DimensionError for centers of
        mixed length."""
        return tuple(tuple(map(itemgetter(i), self.centers))
                     for i in range(word_length(self.centers) or 0))

    def to_dict(self):
        return {"R": self.R, "bits": self.bits,
                "centers": [list(c) for c in self.centers]}

    def to_json(self):
        return json.dumps({"R": self.R, "bits": self.bits, "centers": self.centers},
                          separators=(",", ":"))


def shifted_tiling_n3(bits, R):
    """Shift the K2 components of the n=3 lattice tiling per a bit string.

    Component m is shifted by +(1/2)e_1 when 1 <= m <= len(bits) and
    bits[m-1] == '1', by -(1/2)e_1 otherwise (the m <= 0 default).  All
    resulting centers are integral.  Returned, sorted lexicographically,
    are exactly the centers c that pass the touch rule of the tile V =
    double_sphere(3, 1, 1): -R - max v_i <= c_i <= R - min v_i, that is
    c_1 in [-R-2, R+1] and c_2, c_3 in [-R-1, R+1] (tiling.touch_box).
    Not every one of them meets [-R,R]^3, but no other center can, so
    the cover check filters nothing.

    Only one period along x_1 is walked.  The half image has order b =
    8, so b e_1 is in the kernel, a step of lcm(b, 2) = 2p along d1 maps
    kernel points to kernel points, and the shift reads x_2 + x_3 only:
    c_1 -> c_1 + p, p = 4, maps centers to centers at every x_2 and x_3.
    The kernel points whose shifted c_1 lies in [lo_1, lo_1 + p - 1] give
    p rows of (x_2, x_3), each sorted once, and the centers at c_1 are
    the row of (c_1 - lo_1) mod p.  Each of them is a walked point moved
    by a multiple of 2p along d1, an even step, so the integrality check
    on the walked points holds for every center.  The tiling's columns
    come from the rows too, by tuple concatenation: whole periods of
    them, then the first rows of one more, so no reader extracts them
    from the centers.
    """
    if any(b not in "01" for b in bits):
        raise DomainError(f"bits must be a 0/1 string, got {bits!r}")
    if R < 6 * len(bits) + 6:
        raise WindowError(
            f"window R = {R} too small for {len(bits)} components; need >= "
            f"{6 * len(bits) + 6}"
        )
    half, tile = _n3()
    (lo1, lo2, lo3), (hi1, hi2, hi3) = touch_box(tile, R)
    # doubled shift of every center with x_2 + x_3 = s: 0 on K1, +-1 on K2
    shift = {}
    for s in range(lo2 + lo3, hi2 + hi3 + 1):
        kind, m = component_index_n3((0, s, 0))
        up = kind == K2 and 1 <= m <= len(bits) and bits[m - 1] == "1"
        shift[s] = 0 if kind == K1 else 1 if up else -1
    p = lcm(element_order(half.images[0], half.group), 2) // 2
    # a shift of at most 1/2 along axis 1 brings d1 / 2 into [lo1, lo1 + p - 1]
    # only from d1 in [2 * lo1 - 1, 2 * (lo1 + p - 1) + 1]
    walk = _kernel_points(half, [2 * lo1 - 1, lo2, lo3], [2 * (lo1 + p) - 1, hi2, hi3])
    rows = [[] for _ in range(p)]
    for d1, x2, x3 in walk:
        shifted = d1 + shift[x2 + x3]
        if shifted % 2 != 0:
            raise StructuralError(
                f"shifted center ({shifted}/2,{x2},{x3}) is not integral"
            )
        k = shifted // 2 - lo1
        if 0 <= k < p:
            rows[k].append((x2, x3))
    # each row as its (x_2, x_3) columns, in lexicographic order; distinct,
    # since kernel points are and the shift depends on x_2 + x_3 only
    rows = [tuple(zip(*sorted(row))) for row in rows]
    centers, x1 = [], []
    for c1 in range(lo1, hi1 + 1):
        xs2, xs3 = rows[(c1 - lo1) % p]
        centers += zip(repeat(c1), xs2, xs3)
        x1 += repeat(c1, len(xs2))
    # the x_2 and x_3 columns: q whole periods of rows, then the first r rows
    q, r = divmod(hi1 - lo1 + 1, p)
    x2, x3 = (sum(period, ()) * q + sum(period[:r], ()) for period in zip(*rows))
    tiling = ShiftedWindowTiling(R=R, bits=bits, centers=tuple(centers))
    object.__setattr__(tiling, "columns", (tuple(x1), x2, x3))  # seeds the cached_property
    return tiling


def verify_cover(tiling):
    """Exact-cover oracle: each window point in exactly one translate.

    tiling.exact_cover's core, on the tiling's columns: the centers
    repeat with period 4 along x_1, so it scatters at most four x_1-slabs
    and copies the rest.  DimensionError for centers of mixed length, or of
    a length other than 3.
    """
    cols = tiling.columns
    if tiling.centers and len(cols) != 3:
        raise DimensionError("a center's length is not the tile's n = 3")
    return _exact_cover(cols, len(tiling.centers), _n3()[1], tiling.R)


def code_from_window_tiling(tiling):
    """One codeword per tile: the even-Lee-weight member of {c, c + e_1}, sorted.

    lee.even_weight_members' core, on the tiling's columns: the parity
    is a column sum and the odd centers move by e_1 as columns.  A
    sorted input, as shifted_tiling_n3 gives, merges in linear time.
    DimensionError for centers of mixed length.
    """
    cols = tiling.columns
    total = cols[0] if cols else repeat(0, len(tiling.centers))
    for col in cols[1:]:
        total = map(add, total, col)
    odd = list(map(and_, total, repeat(1)))
    return _even_weight_members(tiling.centers, odd, [compress(c, odd) for c in cols], 1)
