"""Lattice tilings of Z^n through group homomorphisms.

A homomorphism Z^n -> G is determined by the images of the unit vectors.
The restriction being a bijection on a tile V is equivalent to the
kernel lattice tiling Z^n by V; this module provides the evaluation
of phi (the only one in the package, dense, sparse or on the double
cross of the non-regular check), its inverse on a tile (the bijection
check), the proof that given rows are a basis of ker(phi), an exact
kernel-basis extraction, the kernel points of a box in lexicographic
order by back substitution on the basis of the map with its images
reversed, the tiling period, a finite-window exact-cover oracle on
big-integer bitsets (one shift per tile member over the whole padded
window) that reads the centers as columns and writes the centers'
bitset one x_1-slab at a time, scattering each distinct slab once, so
a tiling periodic along x_1 costs one period of scatters, and the
exhaustive search over groups and image assignments.

phi is evaluated in one pass over the word for any G = Z_t1 x ... x Z_ts.
The image of e_i is packed into one integer with coordinate j at bit
offset j * w.  For s >= 2 each a_i is first reduced mod the exponent L
of G, which leaves phi(a) unchanged since L * g = 0 for every g; then
every field of sum (a_i mod L) * packed_i is a sum of at most n terms
in [0, (L - 1)(t_max - 1)], so w = bit_length(n (L - 1)(t_max - 1)) + 1
keeps each field below 2^w and no field carries into the next.  One
product sum and s shift/mask/mod extractions give phi(a).  A one-factor
group packs to the plain column, whose one field cannot overflow into
another, so apply_hom does not reduce there; apply_hom_sparse reduces
for every G.  The one-factor branch stays because the reduction is a
second pass over the dense word: at n = 255 over Z_1020 it doubled
apply_hom (about 13 -> 24 us per word, CPython 3.11 on a 2-vCPU VM) and
raised a decode from 25 to 43 us.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, compress, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, itemgetter, lshift, mod, mul, not_, or_, sub

from .errors import (
    ConstructionError,
    DimensionError,
    DomainError,
    SizeError,
    StructuralError,
    _Frozen,
)
from .groups import (
    FiniteAbelianGroup,
    aut_orbit_representatives,
    enumerate_abelian_groups,
)
from .lee import nonzeros, word_length


class Homomorphism(_Frozen):
    """Images of e_1..e_n in G; half_image, when set, is the image of (1/2)e_1.

    The images are read once, as the factor columns _in_group checks;
    only when a column fails are they scanned, to name the first image
    outside G.  packed holds, per e_i, its image packed into one integer
    with coordinate j at bit offset j * width, one shift and add per
    column (one factor packs to its column), and exponent is the
    exponent L of G; see the module docstring for why width suffices.
    hnf, the Hermite basis of ker(phi) that kernel_basis proves, and the
    checked lex_hnf the kernel walk reads are computed on first use and
    kept.  None of them is part of ==, hash or repr.
    """

    _fields = ("group", "images", "half_image")

    def __init__(self, group: FiniteAbelianGroup, images: tuple,
                 half_image: tuple | None = None):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "images", tuple(tuple(g) for g in images))
        object.__setattr__(self, "half_image", half_image)
        cols = _in_group(self.images, group.factors)
        if cols is None:
            bad = next(g for g in self.images if not group.contains(g))
            raise StructuralError(f"image {bad} not in group {group.factors}")
        if self.half_image is not None:
            h = tuple(self.half_image)
            object.__setattr__(self, "half_image", h)
            if not self.group.contains(h):
                raise StructuralError("half image not in group")
            if self.group.add(h, h) != self.images[0]:
                raise StructuralError("half image does not double to the e_1 image")
        factors = self.group.factors
        L = lcm(*factors)
        w = (self.n * (L - 1) * (max(factors, default=1) - 1)).bit_length() + 1
        object.__setattr__(self, "exponent", L)
        object.__setattr__(self, "width", w)
        packed = cols[0] if cols else repeat(0, self.n)
        for j, col in enumerate(cols[1:], 1):
            packed = map(add, packed, map(lshift, col, repeat(j * w)))
        object.__setattr__(self, "packed", tuple(packed))

    @property
    def n(self):
        return len(self.images)

    @cached_property
    def hnf(self):
        """_kernel_hnf of phi, unchecked: kernel_basis proves it."""
        return _kernel_hnf(self.group.factors, self.images)

    @cached_property
    def lex_hnf(self):
        """The lower Hermite basis of ker(phi) in the coordinates l_{n-1},
        ..., l_0, each row checked, read back in l, to lie in ker(phi).
        Back substitution on it fixes l_0 first, so _kernel_points comes
        out lexicographic."""
        B = _kernel_hnf(self.group.factors, self.images[::-1])
        _check_in_kernel(self, (row[::-1] for row in B))
        return B


def _in_group(images, factors):
    """The images' factor columns if every image is len(factors) ints with
    0 <= g_j < t_j, else None: one set of lengths, and per column its
    types, a min and a max, all in C."""
    if not {*map(len, images)} <= {len(factors)}:
        return None
    cols = []
    for j, t in enumerate(factors):
        col = list(map(itemgetter(j), images))
        if not {*map(type, col)} <= {int} or min(col, default=0) < 0 \
                or max(col, default=0) >= t:
            return None
        cols.append(col)
    return cols


class KernelBasis(_Frozen):
    _fields = ("rows", "det_abs")

    def __init__(self, rows: tuple, det_abs: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "det_abs", det_abs)


def _unpack(hom, x):
    """phi from x = sum a_i * packed_i: one field per factor, reduced mod its order."""
    factors = hom.group.factors
    if len(factors) == 1:
        return (x % factors[0],)
    w = hom.width
    mask = (1 << w) - 1
    return tuple((x >> j * w & mask) % t for j, t in enumerate(factors))


def apply_hom(hom, a):
    """phi(a) = sum a_i * phi(e_i), reduced componentwise in G.

    One pass over a for any G: the sum runs over the packed images,
    with each a_i first reduced mod the exponent of G when G has two or
    more factors, so that no field of the packed sum carries into the
    next (see the module docstring).
    """
    if len(a) != hom.n:
        raise DimensionError(f"word length {len(a)} != {hom.n}")
    if len(hom.group.factors) != 1:
        a = map(mod, a, repeat(hom.exponent))
    return _unpack(hom, sum(map(mul, a, hom.packed)))


def apply_hom_sparse(hom, items):
    """phi of a sparse word given as a sequence of (index, value) pairs, 0-based.

    One path for every G: each value is reduced mod the exponent of G
    before it scales its packed image.  The indices must be distinct,
    as in the sparse form `nonzeros` gives: the packed layout of
    apply_hom bounds the fields for at most n reduced terms.
    """
    packed = hom.packed
    L = hom.exponent
    return _unpack(hom, sum(x % L * packed[i] for i, x in items))


def _double_cross_images(hom, n):
    """phi(V) and phi(V) + h, V = double_sphere(n, 1, 1) and h the half
    image, as two iterators of 4n images each.

    V is {0, 2e_1} | {+-e_i : i <= n} | {e_1 +- e_i : 2 <= i <= n}, so with
    p_i = packed_i and L the exponent, phi(V) unpacks the sums 0, (2 mod
    L) p_1, p_i, (L - 1) p_i, p_1 + p_i and p_1 + (L - 1) p_i, the
    reduced sums apply_hom_sparse forms, and phi(V) + h unpacks them
    plus the packed h.  A field of those sums is at most 2(L - 1)(t - 1)
    + (t - 1), t the largest factor, which stays below the 2^width >
    2 hom.n (L - 1)(t - 1) of the packed layout for hom.n >= 2 (n = 1
    has no two-term sum, and its fields stay at most L(t - 1) <= 2(L -
    1)(t - 1)), so no field carries into the next.  Requires 1 <= n <=
    hom.n and a half image.
    """
    p = hom.packed[:n]
    L = hom.exponent
    neg = list(map(mul, p, repeat(L - 1)))
    sums = [0, 2 % L * p[0], *p, *neg]
    sums += map(add, repeat(p[0]), p[1:])
    sums += map(add, repeat(p[0]), neg[1:])
    w = hom.width
    h = sum(x << j * w for j, x in enumerate(hom.half_image))  # packed as the images are
    return (map(_unpack, repeat(hom), sums),
            map(_unpack, repeat(hom), map(add, sums, repeat(h))))


def inverse_on(hom, words):
    """phi's inverse {phi(w): w} on |G| sparse words, or None if phi collides on them.

    Each word is in the sparse form `nonzeros` gives, its (index,
    value) pairs with indices ascending, so the empty word is the
    origin; the values are the words as given.
    """
    words = list(words)
    if len(words) != hom.group.order:
        raise SizeError(f"|V| = {len(words)} != |G| = {hom.group.order}")
    n = hom.n
    inv = {}
    for w in words:
        if w and not 0 <= w[0][0] <= w[-1][0] < n:
            raise DimensionError(f"sparse word {w} has an index outside 0..{n - 1}")
        g = apply_hom_sparse(hom, w)
        if g in inv:
            return None
        inv[g] = w
    return inv


def is_bijection_on(hom, words):
    """True iff phi is injective (hence onto G) on |G| dense words of length n."""
    words = list(words)
    if word_length(words) not in (None, hom.n):
        raise DimensionError(f"the words are not of length n = {hom.n}")
    return inverse_on(hom, map(nonzeros, words)) is not None


# --- exact integer elimination -------------------------------------------

def _hnf_rows(mat):
    """Row-style Hermite form: echelon, positive pivots, reduced above."""
    A = [list(r) for r in mat]
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if A[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = A[i][c] // A[i0][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[i0])]
        if not nz:
            continue
        A[r], A[nz[0]] = A[nz[0]], A[r]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
    return A


def det_bareiss(mat):
    """Exact determinant by fraction-free elimination."""
    A = [list(r) for r in mat]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[-1][-1]


# most rows of the dense core that abs_det leaves for det_bareiss, whose
# time is cubic in them: every code construct or pl1 emits, and every
# stored descriptor, peels completely; the DPL(n,4) basis times a dense
# unimodular matrix leaves n rows, 0.05 s to eliminate at n = 64 and
# 3.9 s at n = 256 in CPython 3.11 on a 2-vCPU VM
MAX_BAREISS_CORE = 64


def abs_det(rows):
    """Exact |det| of a square integer matrix, sparse lines peeled first.

    Rows and columns are the two kinds of line, each a dict of its
    nonzeros, and one loop peels both.  A line k with exactly one
    nonzero x left, where it crosses line o of the other kind, is an
    exact Laplace step: |det| gains |x|, k and o go, and o's entry
    leaves every other line of k's kind.  An
    emptied row or column gives 0; whatever core is left goes to
    det_bareiss, which costs time cubic in its rows: SizeError, before
    any elimination, when the core has more than MAX_BAREISS_CORE rows.
    Bases that are triangular up to a permutation of rows and columns
    (the DPL(n,4) basis, the HNF of kernel_basis) peel completely, in
    time linear in their entries.  A matrix that is already lower
    triangular, as _kernel_hnf's bases are, needs no peel: its |det| is
    the product of its diagonal.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("matrix is not square")
    if not any(any(row[i + 1:]) for i, row in enumerate(rows)):
        return abs(prod(row[i] for i, row in enumerate(rows)))
    lines = ([dict(nonzeros(row)) for row in rows], [{} for _ in range(n)])
    for i, nz in enumerate(lines[0]):
        for j, x in nz.items():
            lines[1][j][i] = x
    if not all(map(all, lines)):
        return 0
    live = (set(range(n)), set(range(n)))
    # (kind, index), rows kind 0 and columns 1, of lines with one nonzero
    # when pushed; one still live when popped still has it: emptying returns 0
    todo = [(t, k) for t in (0, 1) for k in range(n) if len(lines[t][k]) == 1]
    det = 1
    while todo:
        t, k = todo.pop()
        if k not in live[t]:
            continue
        ((o, x),) = lines[t][k].items()
        det *= abs(x)
        live[t].remove(k)
        live[1 - t].remove(o)
        for m in lines[1 - t][o]:
            if m != k:
                del lines[t][m][o]
                if not lines[t][m]:
                    return 0
                if len(lines[t][m]) == 1:
                    todo.append((t, m))
    core_rows, core_cols = map(sorted, live)
    if core_rows:
        if len(core_rows) > MAX_BAREISS_CORE:
            raise SizeError(f"the determinant leaves a dense {len(core_rows)} x "
                            f"{len(core_rows)} core, above {MAX_BAREISS_CORE} rows")
        det *= abs(det_bareiss([[lines[0][i].get(j, 0) for j in core_cols]
                                for i in core_rows]))
    return det


def _kernel_hnf(factors, images):
    """Lower-triangular Hermite basis of ker(phi), phi(e_i) = images[i]
    in the product of the Z_t, t in factors, one image at a time.

    Row i is d_i e_i + sum a_c e_c over c < i: d_i is the order of
    phi(e_i) modulo the span H_i of the earlier images, and 0 <= a_c <
    d_c, so a_c = 0 unless d_c > 1.  At most log2 |G| columns have d_c >
    1; cols keeps them, latest first.  W is the Hermite form of the rows
    [t_j e_j | 0] and [phi(e_c) | e_c], c in cols, over the s group
    coordinates and one coefficient per column of cols: its first s rows
    hold the group pivots, and the others are the basis rows of cols,
    read on cols.  Reducing [phi(e_i) | 0] by W, row by row, either
    leaves a remainder at a group pivot, and then d_i > 1, phi(e_i) joins
    W under a new first coefficient column and row s of W's new form is
    row i; or it leaves [0 | a], and row i is e_i + sum a_c e_c.  So an
    image costs at most s + len(cols) row operations of that width,
    whatever the order of the images; only writing out the n dense rows
    takes time quadratic in n.
    """
    s = len(factors)
    n = len(images)
    cols = []
    W = [[t if k == j else 0 for k in range(s)] for j, t in enumerate(factors)]
    basis = []
    for i, g in enumerate(images):
        v = list(g) + [0] * len(cols)
        for k, w in enumerate(W):
            q, r = divmod(v[k], w[k])
            if r and k < s:  # phi(e_i) is outside H_i: d_i > 1
                cols.insert(0, i)
                W = _hnf_rows([u[:s] + [0] + u[s:] for u in W]
                              + [list(g) + [1] + [0] * (len(cols) - 1)])
                entries = zip(cols, W[s][s:])
                break
            if q:
                v = list(map(sub, v, map(mul, repeat(q), w)))
        else:
            entries = zip([i] + cols, [1] + v[s:])
        row = [0] * n
        for c, x in entries:
            row[c] = x
        basis.append(tuple(row))
    return tuple(basis)


def _check_in_kernel(hom, rows):
    """ConstructionError unless phi vanishes on every row."""
    identity = hom.group.identity
    for row in rows:
        if apply_hom_sparse(hom, nonzeros(row)) != identity:
            raise ConstructionError(f"basis row {row} not in kernel")


def lattice_basis(hom, rows):
    """KernelBasis of n x n integer rows; ConstructionError unless they lie
    in ker(phi) with |det| = |G| exactly, which for phi onto G (ker(phi)
    then has index |G| in Z^n) proves them a basis of ker(phi).
    """
    rows = tuple(map(tuple, rows))
    if len(rows) != hom.n or any(len(row) != hom.n for row in rows):
        raise DimensionError(f"basis is not {hom.n} x {hom.n}")
    _check_in_kernel(hom, rows)
    det = abs_det(rows)
    if det != hom.group.order:
        raise ConstructionError(f"|det(basis)| = {det} != |G| = {hom.group.order}")
    return KernelBasis(rows=rows, det_abs=det)


def kernel_basis(hom):
    """Canonical lower-triangular basis of ker(phi); lattice_basis proves it
    (ConstructionError unless phi is onto G, as |det| = |phi(Z^n)|)."""
    return lattice_basis(hom, hom.hnf)


def period(hom):
    """Tiling period: lcm of the orders lcm_j t_j / gcd(t_j, g_ij) of the
    images, that is lcm_j t_j / gcd(t_j, g_1j, ..., g_nj), per column."""
    images = hom.images
    return lcm(*(t // gcd(t, *map(itemgetter(j), images))
                 for j, t in enumerate(hom.group.factors)))


def _kernel_points(hom, lo, hi):
    """All l with lo[i] <= l_i <= hi[i] and phi(l) = identity, lexicographic.

    Back substitution on B = hom.lex_hnf, the lower Hermite basis of
    ker(phi) in the reversed coordinates m_k = l_{n-1-k}, at a cost of
    O(n) per point: every point is in the kernel by construction, and
    the map checked B's rows once, when it first built B, so a walk
    evaluates phi nowhere.  phi need not be onto G.  In m, B fixes
    m_{n-1} = l_0 first and m_0 = l_{n-1} last, so taking each level's
    values in ascending order emits the points in lexicographic order
    of l, and no caller sorts them.  A stack entry (j, part, prefix),
    j >= 1, has m_{j+1..} chosen, as l_0..l_{n-2-j} = prefix, and
    part[k], k <= j, is the sum of z_i * B[i][k] over the rows i > j, so
    m_j = part[j] + z_j * B[j][j] and the admissible m_j form the
    progression of step B[j][j] through its range, pushed from the top
    down so the least pops first.
    Level 1 pushes nothing: it walks its progression upwards carrying
    the one scalar part[0] + z_1 * B[1][0], which fixes m_0 modulo
    B[0][0], the order of phi(e_n), and emits the m_0 of each m_1 at
    once.  That order is the largest pivot for the DPL codes, so most
    m_1 admit no m_0 or one.
    """
    n = hom.n
    if n == 0:
        return [()]
    B = hom.lex_hnf
    lo, hi = lo[::-1], hi[::-1]
    d0, lo0, hi0 = B[0][0], lo[0], hi[0]
    if n == 1:
        return [(y,) for y in range(lo0 + -lo0 % d0, hi0 + 1, d0)]
    b10, hi1 = B[1][0], hi[1]
    out = []
    stack = [(n - 1, [0] * n, ())]
    while stack:
        j, part, prefix = stack.pop()
        d = B[j][j]
        x = lo[j] + (part[j] - lo[j]) % d  # least m_j >= lo[j]
        if x > hi[j]:
            continue
        if j == 1:
            r = part[0] - lo0 + (x - part[1]) // d * b10  # part[0] + z_1 * B[1][0] - lo0
            for y in range(x, hi1 + 1, d):
                y0 = lo0 + r % d0  # least m_0 >= lo0
                r += b10
                if y0 + d0 > hi0:
                    if y0 <= hi0:
                        out.append(prefix + (y, y0))
                else:
                    out.extend([prefix + (y, v) for v in range(y0, hi0 + 1, d0)])
            continue
        row = B[j][:j]
        top = hi[j] - (hi[j] - x) % d  # greatest m_j <= hi[j]
        z = (top - part[j]) // d
        part = [p + z * b for p, b in zip(part, row)]
        for y in range(top, x - 1, -d):
            stack.append((j - 1, part, prefix + (y,)))
            part = list(map(sub, part, row))
    return out


def kernel_points_in_box(hom, bound):
    """All l with |l_i| <= bound and phi(l) = identity, lexicographic."""
    return _kernel_points(hom, [-bound] * hom.n, [bound] * hom.n)


def _scatter(buf, indices):
    """Write the ASCII '1' at index ~i of buf, a bytearray or a view of
    one, for every i in indices."""
    for i in indices:
        buf[~i] = 49  # ord('1')


def _bitset(indices, size):
    """The integer with bit i set for every i in indices, each in 0..size-1.

    Bit i is the ASCII '1' _scatter writes at index ~i of a string of
    size '0' bytes, and int(..., 2) reads the string back: both steps
    run in C, at a transient cost of one byte per point.  Base 2 is
    exempt from CPython's limit on the digits of an int string.
    """
    buf = bytearray(b"0") * size
    _scatter(buf, indices)
    return int(buf, 2)


def _touching(cols, lo, hi):
    """The columns of the centers that can touch, those with lo_i <= c_i <=
    hi_i on every axis, for (lo, hi) = touch_box; see exact_cover.

    (c_i - lo_i) // (hi_i - lo_i + 1) is 0 exactly when lo_i <= c_i <=
    hi_i, so the OR of those quotients is 0 exactly for the touching
    centers; only the columns with a value out of range are tested, and
    when none has one, cols come back as they are.
    """
    away = None
    for col, a, b in zip(cols, lo, hi):
        if min(col, default=a) < a or max(col, default=b) > b:
            q = map(floordiv, map(sub, col, repeat(a)), repeat(b - a + 1))
            away = q if away is None else map(or_, away, q)
    if away is None:
        return cols
    keep = list(map(not_, away))
    return [tuple(compress(col, keep)) for col in cols]


def _indices(cols, count, lo, strides):
    """Box indices sum (c_i - lo_i) * stride_i of count centers given as
    columns, lazily.  A stride of 1 adds its column as it is."""
    idx = repeat(-sum(map(mul, lo, strides)), count)
    for col, st in zip(cols, strides):
        idx = map(add, idx, col if st == 1 else map(mul, col, repeat(st)))
    return idx


def _runs(col):
    """The bounds (a, b) of the runs of equal values of the sequence col,
    in order, if its values never decrease; else None.  Each run is
    found by bisection and then checked: all its values equal, and above
    the run before."""
    runs = []
    a = 0
    while a < len(col):
        v = col[a]
        b = bisect_right(col, v, a)
        if col[a:b].count(v) != b - a or a and col[a - 1] >= v:
            return None
        runs.append((a, b))
        a = b
    return runs


def _slab_bitset(cols, lo, strides, size):
    """The bitset of the centers' box indices, built one x_1-slab at a time.

    cols are touching centers, as n >= 1 tuple columns, in the layout of
    _exact_cover, where x_1 is the outermost axis: the points with one
    x_1 fill a slab of strides[0] consecutive bits.  The centers are
    read as runs of equal x_1, after a stable sort by x_1, which copies
    the columns, when x_1 ever decreases.  A run is keyed on its length
    and its other columns, which fix the bits it sets within its slab:
    the first run of a key is scattered into its slab of the string,
    through a view, and a later one copies the bytes already written,
    view to view.  A tiling periodic along x_1 thus scatters one period
    of slabs.  The transient is the byte per point of _bitset, plus the
    keys: about 8(n - 1) bytes per center when no slab repeats.
    """
    runs = _runs(cols[0])
    if runs is None:
        # an unsorted column has two or more values, so the getter returns tuples
        take = itemgetter(*sorted(range(len(cols[0])), key=cols[0].__getitem__))
        cols = list(map(take, cols))
        runs = _runs(cols[0])
    x1 = cols[0]
    slab = strides[0]
    buf = bytearray(b"0") * size
    first = {}  # key -> where in buf its first slab ends
    with memoryview(buf) as view:
        for a, b in runs:
            rest = [col[a:b] for col in cols[1:]]
            key = (b - a, *rest)
            end = size - (x1[a] - lo[0]) * slab
            src = first.get(key)
            if src is None:
                first[key] = end
                _scatter(view[end - slab:end], _indices(rest, b - a, lo[1:], strides[1:]))
            else:
                view[end - slab:end] = view[src - slab:src]
    first.clear()  # the keys need not live through int(), the peak of the call
    return int(buf, 2)


def _repeat(mask, count, step):
    """OR of mask << k * step for k in 0..count-1, in O(log count) big-int ops."""
    out = 0
    done = 0  # copies already in out
    block = mask  # OR of the first `width` copies
    width = 1
    while count:
        if count & 1:
            out |= block << done * step
            done += width
        count >>= 1
        if count:
            block |= block << width * step
            width *= 2
    return out


def exact_cover(centers, tile, R):
    """Exact-cover oracle: every point of [-R,R]^n in exactly one translate c + tile.

    A translate c + tile meets the window only if c lies in (lo, hi) =
    touch_box(tile, R), and then all of it lies in the padded box
    [-R - s_i, R + s_i]^n, s_i = hi_i - lo_i - 2R the spread of the
    tile on axis i.  The points of that box are bits of one integer in
    mixed radix, with x_1 the outermost axis, so the window is a bit
    mask and the touching centers, stored at sum (c_i - lo_i) *
    stride_i, the index of c + m with m_i = R - hi_i the least v_i, are
    another; the member v of every translate is then one shift of the
    centers by the offset of v - m >= 0.  The centers' bitset is built
    one x_1-slab at a time, and a slab whose centers repeat an earlier
    one's, up to x_1, is copied, not scattered again (_slab_bitset).  A
    center given twice goes into a second bitset too, and is an overlap
    only if its translate meets the window.  centers and tile are
    sequences, each read more than once.  SizeError for an empty tile,
    DimensionError for tile words of mixed length or a center whose
    length is not theirs.
    """
    n = word_length(tile)
    if n is None:
        raise SizeError("tile must be nonempty")
    if word_length(centers) not in (None, n):
        raise DimensionError(f"a center's length is not the tile's n = {n}")
    # one column at a time: zip(*centers) would hold an iterator per center
    cols = [tuple(map(itemgetter(i), centers)) for i in range(n)]
    return _exact_cover(cols, len(centers), tile, R)


def _exact_cover(cols, count, tile, R):
    """exact_cover of count centers given as their columns, each a tuple:
    the core both the tuple and the column readers call.  The tile is a
    nonempty sequence of words of one length n, and cols holds n
    columns, or none when count is 0."""
    if R < 0 or not count:
        return False
    lo, hi = touch_box(tile, R)
    n = len(lo)
    strides = [0] * n
    size = 1
    win = 1
    for i in [*range(1, n), 0][:n]:  # x_1 outermost
        s = hi[i] - lo[i] - 2 * R
        strides[i] = size
        win = _repeat(win, 2 * R + 1, size) << s * size
        size *= 2 * (R + s) + 1
    cols = _touching(cols, lo, hi)
    if n:
        count = len(cols[0])
        base = _slab_bitset(cols, lo, strides, size)
    else:
        base = 1  # the one point of Z^0, which every center sets
    twice = 0
    if base.bit_count() != count:
        seen = set()
        twice = _bitset({i for i in _indices(cols, count, lo, strides)
                         if i in seen or seen.add(i)}, size)
    minus_m = [b - R for b in hi]
    cover = 0
    for v in tile:
        off = sum(map(mul, map(add, v, minus_m), strides))
        t = base << off & win
        if cover & t or twice and twice << off & win:
            return False
        cover |= t
    return cover == win


def touch_box(V, R):
    """(lo, hi): the box of the centers c whose translate c + V can meet [-R,R]^n.

    c + V meets the window only if lo_i = -R - max v_i <= c_i <= R -
    min v_i = hi_i on every axis.  V is a nonempty sequence of words of
    one length.
    """
    axes = list(zip(*V))
    return [-R - max(col) for col in axes], [R - min(col) for col in axes]


def verify_window_tiling(hom, V, R):
    """Exact cover of [-R,R]^n by the translates of V over ker(phi).

    The centers are the kernel points of touch_box(V, R).
    """
    V = list(V)
    n = word_length(V)
    if n is None:
        raise SizeError("tile must be nonempty")
    if n != hom.n:
        raise DimensionError(f"word length {n} != {hom.n}")
    return exact_cover(_kernel_points(hom, *touch_box(V, R)), V, R)


# --- exhaustive search ----------------------------------------------------

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 10 ** 7
# most failed full assignments a SearchResult keeps
MAX_FAILURES = 1024
# most memoised steps one group's search keeps before it clears them
SEARCH_MEMO_CAP = 2 ** 18


class SearchResult(_Frozen):
    _fields = ("status", "hom", "groups_tried", "assignments_tried", "nodes", "failures")

    def __init__(self, status: str, hom: Homomorphism | None, groups_tried: int,
                 assignments_tried: int, nodes: int, failures: tuple):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "hom", hom)
        object.__setattr__(self, "groups_tried", groups_tried)
        object.__setattr__(self, "assignments_tried", assignments_tried)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "failures", failures)

    def certificate(self):
        if self.status == FOUND:
            return {
                "status": self.status,
                "group": list(self.hom.group.factors),
                "images": [list(g) for g in self.hom.images],
            }
        return {
            "status": self.status,
            "groups_tried": self.groups_tried,
            "assignments_tried": self.assignments_tried,
            "nodes": self.nodes,
        }


def _normalize_tile(V):
    """Translate the nonempty V so its lexicographic minimum lands on the
    origin; the words come sorted, a column at a time."""
    V = sorted(set(V))
    return list(zip(*[map(sub, col, repeat(b)) for col, b in zip(zip(*V), V[0])]))


def _tile_symmetries(W):
    """(prev, negated) of the normalized tile W: prev[j] is the previous
    member of j's class of coordinates whose swaps map W onto a translate
    of W (n for a class's first member), and negated[d] says whether
    negating coordinate d >= 1 does (negated[0] is the orbit cut's).

    Each word is kept as the mixed-radix index of u = w - lo, lo the
    least value of each column: the sum of u_c * P_c, P_c the product of
    s_b + 1 over the columns b < c, s_b the spread of column b.  A map of
    the coordinates sends W onto a translate only if it keeps every
    column's spread, and then exactly when it moves each word's index
    into the set of W's, since the images are |W| distinct words and the
    index is injective on the box 0 <= u_c <= s_c, which the map keeps.
    A swap of i and j moves an index by (u_j - u_i)(P_i - P_j), and a
    negation of d by (s_d - 2 u_d) P_d: one pass over the indices each.

    Such swaps compose: if (i j) and (j k) map W onto translates, so
    does (i k) = (i j)(j k)(i j).  The interchangeable coordinates are
    therefore classes, found by testing each j against the first member
    of each class: n - 1 tests on the cross of Z^n, not n(n - 1)/2.
    """
    cols = [list(map(sub, col, repeat(min(col)))) for col in zip(*W)]
    n = len(cols)
    spread = list(map(max, cols))
    places = list(accumulate([s + 1 for s in spread], mul, initial=1))
    index = [sum(map(mul, u, places)) for u in zip(*cols)]
    members = set(index)

    def onto(new, old, step):  # each index moves by (new - old) * step
        moved = map(mul, map(sub, new, old), repeat(step))
        return members.issuperset(map(add, index, moved))

    prev = [n] * n
    tail = {}  # the first member of each class -> its latest member
    for j in range(n):
        for i in tail:
            if spread[i] == spread[j] and onto(cols[j], cols[i], places[i] - places[j]):
                prev[j], tail[i] = tail[i], j
                break
        else:
            tail[j] = j
    negated = [False] * n
    for d in range(1, n):
        negated[d] = onto(map(sub, repeat(spread[d]), cols[d]), cols[d], places[d])
    return prev, negated


def _search_group(G, start, coeffs, budget, counts, failures, prev, negated):
    """Depth-first image assignment in G; see search_lattice_tiling.

    The first image runs over one element per Aut(G)-orbit, the
    lex-least, and the search still returns the solution an unpruned
    search would.  The DFS visits image tuples in lexicographic order,
    so without the cut it returns the lex-least solution phi*; let g*
    be its first image.  For an automorphism alpha, alpha o phi* is
    bijective on the tile too and has the first image alpha(g*), so
    alpha(g*) < g* would make it a lex-smaller solution.  Hence g* is
    the lex-least element of its orbit and is tried, no element before
    it starts a solution, and the skipped ones only save nodes.

    The tile's own symmetries cut the same way (lex-leader constraints,
    Crawford, Ginsberg, Luks and Roy, KR 1996).  If a swap of
    coordinates i < j, or a negation of coordinate d, maps the tile
    onto a translate of itself, then phi* composed with it is bijective
    on the tile too, with images i and j exchanged or image d negated.
    Its image tuple is no less than phi*'s, so phi* has images[i] <=
    images[j] and index(g_d) <= index(-g_d): depth j starts at
    images[prev[j]] (images[n] = 0), the largest image of j's earlier
    class members since the cut keeps images nondecreasing along a
    class, and a depth d with negated[d] skips every g with
    index(-g) < g.  phi* meets all of these constraints and the orbit
    cut's at once, so no cut skips it and the search still returns it:
    status and groups_tried are the unpruned search's.  The skipped
    elements are not nodes.  A negation of coordinate 0 is already cut
    by the orbits, since -1 is an automorphism.

    A word's residue is final once the images up to its last nonzero
    coordinate are assigned: depth d checks the words whose last nonzero
    coordinate is d against the residues already fixed, and carries the
    partial residues of the later words down one level, on an explicit
    stack of one frame per depth, so no dimension hits the recursion limit.

    Elements are their indices lex_rank - 1, so the identity is 0, a
    residue is an int and the residues fixed so far are one bitmask.
    step(r, x, g) is the index of r + x * g, memoised in one dict keyed
    by ((x mod L) * |G| + g) * |G| + r for the exponent L of G: the key
    is exact because L * g = 0, so x * g depends on x mod L alone, and
    the negation cut reads -g as step(0, L - 1, g), of index 0 only for
    g = 0.  A miss sums ((r_j + x * g_j) mod t_j) * P_j over the digits,
    P_j the index of the j-th unit element: lex_rank's Horner sum,
    expanded, and the sum of e_j * P_j indexes each first image e.  The
    dict grows with the steps the search takes, not with |G|^2, and is
    cleared at SEARCH_MEMO_CAP entries, so memory stays bounded however
    long the budget lets a search run.
    """
    factors = G.factors
    N = G.order
    NN = N * N
    L = lcm(*factors)
    neg = (L - 1) * NN  # the memo key of -g = 0 + (L - 1) * g, less g * |G|
    n = len(coeffs)
    images = [None] * n + [0]
    elems = list(G.elements())
    # the index of e is the sum of e_j * P_j, P_j = t_{j+1} * ... * t_s
    places = [prod(factors[j + 1:]) for j in range(len(factors))]
    first = [sum(map(mul, g, places)) for g in aut_orbit_representatives(G)]
    memo = {}
    get = memo.get

    def step(r, x, g):
        """Index of r + x * g for 0 <= x < L, computed once and memoised."""
        if len(memo) >= SEARCH_MEMO_CAP:
            memo.clear()
        s = 0
        for a, b, t, p in zip(elems[r], elems[g], factors, places):
            s += (a + x * b) % t * p
        memo[(x * N + g) * N + r] = s
        return s

    # (x mod L) * |G|^2 per coefficient x; a residue r adds r and an
    # image g adds g * |G|, giving the memo key of r + x * g
    cols = [[x % L * NN for x in coeff] for coeff in coeffs]
    # a frame per depth: candidates, residues fixed above, keys fixed here, later keys
    k = start[1] - start[0]
    stack = [(iter(first), 1, cols[0][:k], cols[0][k:])]
    while stack:
        cands, seen, fixed, later = stack[-1]
        depth = len(stack) - 1
        for g in cands:
            counts[0] += 1
            if counts[0] > budget:
                return BUDGET_EXCEEDED
            images[depth] = g
            gN = g * N
            mask = seen
            ok = True
            for key in fixed:
                s = get(key + gN)
                if s is None:
                    s = step(key % N, key // NN, g)
                bit = 1 << s
                if mask & bit:
                    ok = False
                    break
                mask |= bit
            if depth + 1 == n:
                counts[1] += 1
                if ok:
                    return Homomorphism(G, tuple(map(elems.__getitem__, images[:n])))
                if len(failures) < MAX_FAILURES:
                    failures.append((factors, tuple(map(elems.__getitem__, images[:n]))))
            elif ok:
                # a key below |G|^2 has x mod L = 0 and is the residue itself
                nxt = [key if key < NN else get(key + gN, -1) for key in later]
                if -1 in nxt:
                    nxt = [step(key % N, key // NN, g) if s < 0 else s
                           for s, key in zip(nxt, later)]
                d = depth + 1
                keys = list(map(add, nxt, cols[d]))
                k = start[d + 1] - start[d]
                gs = range(images[prev[d]], N)
                if negated[d]:
                    gs = (h for h in gs if h <= (get(neg + h * N) or step(0, L - 1, h)))
                stack.append((iter(gs), mask, keys[:k], keys[k:]))
                break
        else:
            stack.pop()
    return None


def search_lattice_tiling(V, budget=DEFAULT_BUDGET):
    """Exhaustive search for a homomorphism bijective on V.

    Deterministic: groups in canonical order, image assignments in
    lexicographic element order, first full solution returned.  The
    first image is tried only at the lex-least element of each
    Aut(G)-orbit (an automorphism maps a solution to a solution), which
    returns the same solution, groups_tried and status as trying every
    element; only nodes, assignments_tried and failures shrink.  The
    tile's own coordinate swaps and negations, found once per call by
    moving the mixed-radix indices of its words, cut the same way and
    keep the same results: image j is never below that of j's
    predecessor among the coordinates it swaps with, and image d never
    above its negative, by index, when negating coordinate d maps the
    tile onto a translate of itself (see _search_group).  They shrink
    the nodes of the double spheres and Lee spheres most, so a NotFound
    or BudgetExceeded result reports fewer nodes and assignments than a
    search without them.  NotFound is reported only on true exhaustion.
    """
    V = list(V)
    n = word_length(V)
    if n is None:
        raise SizeError("tile must be nonempty")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    W = _normalize_tile(V)
    if len(W) < len(V):
        raise DomainError("tile has a repeated word")
    # words sorted by last nonzero coordinate (-1 for the origin);
    # start[d] is the first word whose last nonzero coordinate is >= d
    last = [max(compress(range(n), w), default=-1) for w in W]
    words = list(map(W.__getitem__, sorted(range(len(W)), key=last.__getitem__)))
    last.sort()
    start = [bisect_left(last, d) for d in range(n + 1)]
    coeffs = [list(map(itemgetter(d), words[start[d]:])) for d in range(n)]
    symmetries = _tile_symmetries(W)
    counts = [0, 0]  # nodes, full assignments
    groups_tried = 0
    failures = []

    status, hom = NOT_FOUND, None
    for G in enumerate_abelian_groups(len(W)):
        groups_tried += 1
        res = _search_group(G, start, coeffs, budget, counts, failures, *symmetries)
        if res == BUDGET_EXCEEDED:
            status = BUDGET_EXCEEDED
            break
        if res is not None:
            status, hom = FOUND, res
            break
    return SearchResult(status, hom, groups_tried, counts[1], counts[0],
                        tuple(failures))
