"""Linear diameter-perfect Lee codes.

Covers the admissibility characterization of the modulus q, the
constructive diameter-4 builder over the canonical double sphere
V = {+-e_i, +-e_i + e_1}, the classical radius-1 sphere construction,
the even-weight transversal, restriction to Z_q^n, and window-based
minimum-distance validation.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import repeat
from math import prod

from .errors import (
    ConstructionError,
    DataFormatError,
    DomainError,
    LeeCodeError,
    MembershipError,
    PeriodicityError,
    SizeError,
    WindowError,
    _Frozen,
)
from .groups import FiniteAbelianGroup, factorize
from .lee import (
    double_sphere,
    double_sphere_size,
    double_sphere_sparse,
    even_weight_member,
    even_weight_members,
    lee_sphere,
    lee_sphere_size,
    lee_sphere_sparse,
)
from .tiling import (
    Homomorphism,
    KernelBasis,
    _kernel_points,
    apply_hom,
    inverse_on,
    kernel_basis,
    kernel_points_in_box,
    lattice_basis,
    period,
)

SPHERE = "sphere"
DOUBLE_SPHERE = "double-sphere"
EVEN_WEIGHT = "even-weight"
IDENTITY = "identity"
# the transversal each anticode kind's codes use
TRANSVERSAL_OF = {SPHERE: IDENTITY, DOUBLE_SPHERE: EVEN_WEIGHT}

# most anticode points a load inverts: the largest code construct or
# pl1 emits has |G| = 4 * 3162 = 12648, while the inversion costs time
# and memory linear in |G|, 0.6 s and 60 MB just below this bound in
# CPython 3.11 on a 2-vCPU VM
MAX_ANTICODE_POINTS = 2 ** 17


class AnticodeSpec(_Frozen):
    _fields = ("kind", "n", "r", "axis")

    def __init__(self, kind: str, n: int, r: int, axis: int = 1):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "axis", axis)
        if self.kind not in (SPHERE, DOUBLE_SPHERE):
            raise DomainError(f"unknown anticode kind {self.kind!r}")
        if not 1 <= self.axis <= self.n:
            raise DomainError(f"axis {self.axis} out of range 1..{self.n}")

    def points(self):
        """The points, dense and sorted lexicographically."""
        if self.kind == SPHERE:
            return lee_sphere(self.n, self.r)
        return double_sphere(self.n, self.r, self.axis)

    def sparse_points(self):
        """The points in sparse form (see lee.nonzeros), unordered."""
        if self.kind == SPHERE:
            return lee_sphere_sparse(self.n, self.r)
        return double_sphere_sparse(self.n, self.r, self.axis)

    @property
    def size(self):
        """Number of points, in closed form: known before any enumeration."""
        if self.kind == SPHERE:
            return lee_sphere_size(self.n, self.r)
        return double_sphere_size(self.n, self.r)

    @property
    def diameter(self):
        return 2 * self.r if self.kind == SPHERE else 2 * self.r + 1


class LinearLeeCode(_Frozen):
    """A code is its anticode, phi and a kernel basis, with an optional
    modulus q; n, the transversal and phi's inverse on the anticode are
    derived from them.  blocks, the image blocks construct_dpl4 laid
    out, is shown in repr but outside == and hash."""

    _fields = ("anticode", "hom", "basis", "q")
    _shown = _fields + ("blocks",)

    def __init__(self, anticode: AnticodeSpec, hom: Homomorphism, basis: KernelBasis,
                 q: int | None = None, blocks: tuple | None = None):
        object.__setattr__(self, "anticode", anticode)
        object.__setattr__(self, "hom", hom)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self):
        return self.hom.n

    @property
    def transversal(self):
        return TRANSVERSAL_OF[self.anticode.kind]

    @cached_property
    def inverse(self):
        """phi's inverse on the anticode, {phi(v): sparse form of v}; None if
        phi collides on it.  Derived once per code object."""
        return inverse_on(self.hom, self.anticode.sparse_points())


def is_admissible_q(n, q):
    """True iff a linear non-periodic diameter-4 code over Z_q^n exists."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    # 4 | q | 4n and every odd prime of n divides q, i.e. the odd part
    # r of n divides q^k for any k at least the largest exponent in r
    r = n >> ((n & -n).bit_length() - 1)
    return q % 4 == 0 and 4 * n % q == 0 and pow(q, r.bit_length(), r) == 0


def _squarefree_chain(m):
    """Divisibility chain of squarefree factors multiplying to m.

    Factor j contains prime p iff its exponent in m is at least j.
    """
    fac = factorize(m)
    depth = max(fac.values(), default=0)
    return tuple(
        prod(p for p, e in fac.items() if e >= j) for j in range(1, depth + 1)
    )


def construct_dpl4(n, q):
    """Diameter-4 code builder: G = Z_q x H with |H| = 4n/q, squarefree H.

    Images come in blocks of odd first coordinates 2i-1: one block for
    the zero of H, one of length q/4 per order-2 element of H, and one
    of length q/2 per inverse pair keyed by its lexicographically
    smaller member.  With m_j the block start of the unit delta_j of H's
    component j, of order t_j, phi(e_1) = (1, 0) and phi(e_{m_j}) =
    (1, delta_j), so the kernel basis rows are q e_1, t_j (e_1 - e_{m_j})
    and, for every other phi(e_i) = (a, b), (a - sum b) e_1 +
    sum_j b_j e_{m_j} - e_i.  Each is checked to have an even coordinate
    sum, hence even Lee weight, and lattice_basis proves them a basis.
    """
    if not is_admissible_q(n, q):
        raise DomainError(f"q = {q} is not admissible for n = {n}")
    h_factors = _squarefree_chain(4 * n // q)
    H = FiniteAbelianGroup(h_factors)
    G = FiniteAbelianGroup((q,) + h_factors)
    neg = {b: H.neg(b) for b in H.elements()}  # in the lex order of elements()
    order2 = [b for b, nb in neg.items() if any(b) and nb == b]
    pair_keys = [b for b, nb in neg.items() if b < nb]  # the lex-smaller of b, -b

    images = []
    blocks = []  # (h_element, 0-based start, length)
    for b, length in ([(H.identity, q // 4)] + [(b, q // 4) for b in order2]
                      + [(b, q // 2) for b in pair_keys]):
        blocks.append((b, len(images), length))
        images += [((2 * i - 1) % q,) + b for i in range(1, length + 1)]
    if len(images) != n:
        raise ConstructionError(f"block sizes sum to {len(images)}, expected {n}")
    hom = Homomorphism(G, tuple(images))

    # 0-based m_j -> t_j, in component order.  delta_j is always a block
    # key: of order 2 when t_j = 2, else the lex-smaller member of its
    # pair since 1 < t_j - 1, so the lookup cannot miss.
    start_of = {b: start for b, start, _length in blocks}
    units = {start_of[H.identity[:j] + (1,) + H.identity[j + 1:]]: t
             for j, t in enumerate(h_factors)}
    rows = []
    for i, (a, *b) in enumerate(images):
        vec = [0] * n
        if i == 0:
            vec[0] = q
        elif i in units:
            vec[0], vec[i] = units[i], -units[i]
        else:
            vec[0] = a - sum(b)
            for m, b_j in zip(units, b):
                vec[m] += b_j
            vec[i] -= 1
        rows.append(tuple(vec))

    for row in rows:
        if sum(row) % 2 != 0:
            raise ConstructionError(f"basis row {row} has odd Lee weight")
    basis = lattice_basis(hom, rows)

    anticode = AnticodeSpec(kind=DOUBLE_SPHERE, n=n, r=1, axis=1)
    return LinearLeeCode(anticode=anticode, hom=hom, basis=basis,
                         blocks=tuple(blocks))


def construct_pl1(n):
    """Classical radius-1 construction: G = Z_{2n+1}, phi(e_i) = i."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    G = FiniteAbelianGroup((2 * n + 1,))
    hom = Homomorphism(G, tuple((i,) for i in range(1, n + 1)))
    anticode = AnticodeSpec(kind=SPHERE, n=n, r=1)
    return LinearLeeCode(anticode=anticode, hom=hom, basis=kernel_basis(hom))


def apply_transversal(code, l):
    """Codeword of the tile at l, for l already known to lie in the kernel.

    Even-weight transversal: the even-Lee-weight member of the center
    pair {l, l + e_axis}; identity transversal: l itself.
    """
    if code.anticode.kind == SPHERE:
        return tuple(l)
    return even_weight_member(l, code.anticode.axis)


def codeword_of_tile(code, l):
    """Codeword of the tile translated by kernel vector l."""
    if apply_hom(code.hom, l) != code.hom.group.identity:
        raise MembershipError(f"{l} is not in the kernel lattice")
    return apply_transversal(code, l)


def _check_modulus(q, p):
    """DomainError unless q >= 1, PeriodicityError unless the period p divides q."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if q % p != 0:
        raise PeriodicityError(f"period {p} does not divide q = {q}")


def restrict_to_zq(code, q):
    """Restriction to Z_q^n; requires q >= 1 and the code period to divide q."""
    _check_modulus(q, period(code.hom))
    return LinearLeeCode(code.anticode, code.hom, code.basis, q, code.blocks)


def codewords_mod_q(code):
    """All codewords of a modular code, as reduced words, sorted.

    The kernel points are those of [0, q-1]^n, which the walk emits
    sorted.  Under the even-weight transversal their members leave that
    box only where l_axis = q - 1 moved to q.  One pass reduces those to
    l_axis = 0 and one sort puts the words in order; the members come
    sorted, so that sort merges the sorted runs the pass leaves.
    """
    if code.q is None:
        raise DomainError("code has no modulus; restrict it first")
    q = code.q
    pts = _kernel_points(code.hom, [0] * code.n, [q - 1] * code.n)
    if code.anticode.kind == SPHERE:
        return pts
    a = code.anticode.axis - 1
    out = [w[:a] + (0,) + w[a + 1:] if w[a] == q else w
           for w in even_weight_members(pts, a + 1)]
    out.sort()
    return out


def codewords_in_window(code, R):
    """All codewords inside [-R,R]^n, sorted lexicographically.

    Under the identity transversal they are the window's kernel points.
    The even-weight member of kernel point l is l or l + e_axis, so the
    l with l_axis = -R - 1 are enumerated too and the members outside
    the window dropped.  The walk emits the points sorted, so
    even_weight_members merges two sorted runs.
    """
    if code.anticode.kind == SPHERE:
        return kernel_points_in_box(code.hom, R)
    n = code.n
    a = code.anticode.axis - 1
    lo = [-R] * n
    lo[a] = -R - 1
    cws = even_weight_members(_kernel_points(code.hom, lo, [R] * n), a + 1)
    return [c for c in cws if -R <= c[a] <= R]


def min_distance_window(code, R):
    """Least Lee weight of a nonzero codeword inside [-R,R]^n.

    One rule for every code: the minimum distance is the least weight of
    a nonzero codeword.  Let L0 be the even-weight part of ker(phi).
    When the transversal is even-weight and ker(phi) holds an odd v, the
    codewords are C = L0 ∪ (L0 + u) with u = v + e_axis, and
    C - C = L0 ∪ ±(L0 + u); otherwise C = ker(phi) = C - C.  Either way
    C - C = C ∪ -C has exactly the Lee weights of C.  The window value
    is exact once R reaches the minimum distance d, since a codeword of
    weight d has no coordinate beyond d.
    """
    if R < 1:
        raise DomainError(f"window radius must be >= 1, got {R}")
    cws = codewords_in_window(code, R)
    if len(cws) < 2:
        raise WindowError(f"fewer than 2 codewords inside [-{R},{R}]^n")
    # the Lee weight of each word in C (sum of abs), 0 only for the origin
    return min(filter(None, map(sum, map(map, repeat(abs), cws))))


# --- canonical JSON descriptor -------------------------------------------

def code_to_dict(code):
    d = {
        "n": code.n,
        "anticode": {
            "kind": code.anticode.kind,
            "r": code.anticode.r,
            "axis": code.anticode.axis,
        },
        "group": list(code.hom.group.factors),
        "images": [list(g) for g in code.hom.images],
        "transversal": code.transversal,
    }
    if code.q is not None:
        d["q"] = code.q
    d["basis"] = [list(row) for row in code.basis.rows]
    return d


def code_to_json(code):
    return json.dumps(code_to_dict(code), separators=(",", ":"))


def _int(x, what, least):
    """x if it is an int (a bool, float or str is not) of at least `least`."""
    if type(x) is not int:
        raise DataFormatError(f"{what} must be an integer, got {x!r}")
    if x < least:
        raise DataFormatError(f"{what} must be >= {least}, got {x}")
    return x


def _ints(xs, what, length=None):
    """xs as a tuple if it is a list of ints, of `length` items when given."""
    if type(xs) is not list or not {*map(type, xs)} <= {int}:
        raise DataFormatError(f"{what} must be a list of integers")
    if length is not None and len(xs) != length:
        raise DataFormatError(f"{what} has {len(xs)} entries, expected {length}")
    return tuple(xs)


def _int_rows(rows, what, n, width):
    """rows as a tuple of tuples if it is a list of n lists of `width` ints."""
    if type(rows) is not list or len(rows) != n:
        raise DataFormatError(f"{what} must be a list of {n} lists")
    return tuple(_ints(row, f"{what} row {i}", width) for i, row in enumerate(rows, 1))


def code_from_dict(d):
    """Validate a code descriptor and build its code; DataFormatError on any defect.

    Integer fields must be JSON integers.  The load proves that the
    basis lies in ker(phi) with |det| = |G| exactly, that phi is
    bijective on the anticode, that the transversal is the one of the
    anticode kind, and that the period divides q.  An anticode of more
    than MAX_ANTICODE_POINTS points is refused before it is enumerated,
    and a basis whose determinant leaves a dense core of more than
    tiling.MAX_BAREISS_CORE rows before it is eliminated.
    """
    if type(d) is not dict or type(d.get("anticode")) is not dict:
        raise DataFormatError("a code descriptor is a JSON object with an "
                              "'anticode' object")
    ac = d["anticode"]
    try:
        n = _int(d["n"], "n", 1)
        kind = ac["kind"]
        r = _int(ac["r"], "anticode.r", 0)
        axis = _int(ac.get("axis", 1), "anticode.axis", 1)
        factors = _ints(d["group"], "group")
        images = _int_rows(d["images"], "images", n, len(factors))
        rows = _int_rows(d["basis"], "basis", n, n)
        transversal = d["transversal"]
    except KeyError as exc:
        raise DataFormatError(f"malformed code descriptor: missing {exc}") from exc
    q = _int(d["q"], "q", 1) if "q" in d else None
    try:
        anticode = AnticodeSpec(kind=kind, n=n, r=r, axis=axis)
        G = FiniteAbelianGroup(factors)
        hom = Homomorphism(G, images)
    except LeeCodeError as exc:
        raise DataFormatError(f"malformed code descriptor: {exc}") from exc
    if transversal != TRANSVERSAL_OF[kind]:
        raise DataFormatError(f"a {kind} anticode needs the {TRANSVERSAL_OF[kind]} "
                              f"transversal, not {transversal!r}")
    if anticode.size != G.order:
        raise DataFormatError(f"|anticode| = {anticode.size} != |G| = {G.order}")
    if G.order > MAX_ANTICODE_POINTS:
        raise DataFormatError(f"|G| = {G.order} is above the {MAX_ANTICODE_POINTS} "
                              "anticode points a load inverts")
    if q is not None and q % period(hom) != 0:
        raise DataFormatError(f"q = {q} is not a positive multiple of the period "
                              f"{period(hom)}")
    try:
        basis = lattice_basis(hom, rows)
    except (ConstructionError, SizeError) as exc:
        raise DataFormatError(str(exc)) from exc
    code = LinearLeeCode(anticode=anticode, hom=hom, basis=basis, q=q)
    if code.inverse is None:
        raise DataFormatError("homomorphism is not bijective on the anticode")
    return code


def code_from_json(text):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    return code_from_dict(d)
