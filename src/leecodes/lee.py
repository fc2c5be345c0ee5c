"""Lee-metric primitives.

Words are plain tuples of Python integers, so there is no silent
wraparound at any scale.  All dense enumerations are emitted in
lexicographic order by coordinates, which keeps golden files stable.
The spheres are enumerated by support in sparse form (see nonzeros),
unordered; the dense lists are sorted views of those.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, compress, count, groupby, islice, product, repeat
from math import comb
from operator import add, and_, eq, itemgetter, mul, not_, sub

from .errors import DimensionError, DomainError


def lee_weight(w, q=None):
    """Lee weight of a word: distance to the origin (optionally mod q)."""
    if q is None:
        return sum(map(abs, w))
    if q < 2:
        raise DomainError(f"modulus must be >= 2, got {q}")
    total = 0
    for x in w:
        d = x % q
        total += min(d, q - d)
    return total


def even_weight_member(w, axis=1):
    """The member of {w, w + e_axis} with even coordinate sum, hence even Lee weight.

    axis is 1-based.  This is the even-weight transversal rule of every
    diameter-4 code here.
    """
    w = tuple(w)
    if sum(w) % 2 == 0:
        return w
    return w[:axis - 1] + (w[axis - 1] + 1,) + w[axis:]


def even_weight_members(words, axis=1):
    """sorted({even_weight_member(w, axis) for w in words}) for a sequence of
    words of one length.  Split by the parity of the coordinate sum, a
    sorted input gives two sorted runs, the even words and the odd ones
    moved by e_axis, which one sort merges in linear time.  Two words
    reach one member only when a word repeats, or an odd w and an even
    w + e_axis are both given; one C-level scan of the merged run for
    equal neighbours finds that, and only then are they dropped.
    """
    odd = list(map(and_, map(sum, words), repeat(1)))
    up = list(compress(words, odd))
    cols = [map(itemgetter(i), up) for i in range(len(up[0]))] if up else []
    return _even_weight_members(words, odd, cols, axis)


def _even_weight_members(words, odd, up, axis):
    """even_weight_members of words, given odd, each word's coordinate sum
    mod 2, and up, the coordinates of the odd words as one iterable per
    axis: the core both the tuple and the column readers call."""
    members = list(compress(words, map(not_, odd)))
    if up:
        up[axis - 1] = map(add, up[axis - 1], repeat(1))
        members += zip(*up)
    members.sort()
    if any(map(eq, members, islice(members, 1, None))):
        return list(map(itemgetter(0), groupby(members)))
    return members


def nonzeros(w):
    """The sparse form of a word: its (0-based index, value) pairs with value != 0."""
    return tuple(zip(compress(count(), w), filter(None, w)))


def lee_distance(u, v, q=None):
    """Lee distance between two words of equal length (optionally mod q)."""
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return lee_weight(tuple(a - b for a, b in zip(u, v)), q)


def _check_sphere(n, r):
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if r < 0:
        raise DomainError(f"radius must be >= 0, got {r}")


def _sphere_sparse(n, r, bump=None):
    """The Lee sphere of radius r in Z^n in sparse form, by support.

    Support positions, magnitudes and signs are chosen in turn, so the
    cost is proportional to the sphere volume even when n is large.  The
    k magnitudes with sum <= r are the gaps between k cuts 0 < c_1 <
    ... < c_k <= r, so the cuts in lexicographic order give them in
    lexicographic order too.

    With a 0-based coordinate bump, each word w of weight r with
    w_bump >= 0 is followed by w + e_bump: the words of the double
    sphere (see double_sphere_sparse).  The weight is the last cut, so
    it is known once per support and magnitudes, and so is j, the index
    that bump has or would take in the support: w_bump >= 0 holds for
    every sign when bump is outside the support, else where the sign at
    j is +, and w + e_bump is w with entry j raised by 1 or (bump, 1)
    inserted at j.
    """
    j = hit = 0
    for k in range(min(n, r) + 1):
        for positions in combinations(range(n), k):
            if bump is not None:
                j = bisect_left(positions, bump)
                hit = j < k and positions[j] == bump
            for cuts in combinations(range(1, r + 1), k):
                mags = tuple(map(sub, cuts, (0,) + cuts))
                outer = bump is not None and (cuts[-1] if cuts else 0) == r
                for signs in product((1, -1), repeat=k):
                    w = tuple(zip(positions, map(mul, signs, mags)))
                    yield w
                    if outer:
                        if not hit:
                            yield w[:j] + ((bump, 1),) + w[j:]
                        elif signs[j] > 0:
                            yield w[:j] + ((bump, mags[j] + 1),) + w[j + 1:]


def _dense(n, items):
    w = [0] * n
    for i, x in items:
        w[i] = x
    return tuple(w)


def lee_sphere_sparse(n, r):
    """The words of lee_sphere(n, r) in sparse form (see nonzeros), unordered."""
    _check_sphere(n, r)
    return list(_sphere_sparse(n, r))


def lee_sphere(n, r):
    """All words of Z^n within Lee distance r of the origin, lexicographic."""
    return sorted(_dense(n, w) for w in lee_sphere_sparse(n, r))


def double_sphere_sparse(n, r, axis=1):
    """The words of double_sphere(n, r, axis) in sparse form, unordered.

    S(e_axis) = S(O) + e_axis, and w + e_axis for w in S(O) lies outside
    S(O) exactly when w has weight r and w_axis >= 0, so those are the
    words added to S(O), each once, right after their w.  _sphere_sparse
    lists both, taking the weight from its cuts: no word is summed or
    searched for its axis coordinate.
    """
    if not 1 <= axis <= n:
        raise DomainError(f"axis {axis} out of range 1..{n}")
    _check_sphere(n, r)
    return list(_sphere_sparse(n, r, axis - 1))


def double_sphere(n, r, axis=1):
    """The double sphere S(O) | S(e_axis), sorted lexicographically.

    axis is 1-based; the canonical copy has axis 1.
    """
    return sorted(_dense(n, w) for w in double_sphere_sparse(n, r, axis))


def lee_sphere_size(n, r):
    """Closed-form volume of the Lee sphere of radius r in Z^n, exact integer arithmetic."""
    _check_sphere(n, r)
    return sum(2 ** i * comb(n, i) * comb(r, i) for i in range(min(n, r) + 1))


def double_sphere_size(n, r):
    """Closed-form volume of the double sphere, exact integer arithmetic."""
    _check_sphere(n, r)
    return sum(
        2 ** (i + 1) * comb(n - 1, i) * comb(r + 1, i + 1)
        for i in range(min(n - 1, r) + 1)
    )


# --- serialization: words as comma-separated ints, sets as sorted lines ---

def format_word(w):
    return ",".join(str(x) for x in w)


def parse_word(s):
    try:
        return tuple(int(tok) for tok in s.strip().split(","))
    except ValueError as exc:
        raise DomainError(f"bad word {s!r}") from exc


def format_words(words):
    return "\n".join(format_word(w) for w in sorted(words))


def word_length(words):
    """The words' one length, None for no words; DimensionError for mixed lengths."""
    lengths = set(map(len, words))
    if len(lengths) > 1:
        raise DimensionError("words of mixed length")
    return lengths.pop() if lengths else None


def parse_words(text):
    words = [parse_word(line) for line in text.splitlines() if line.strip()]
    word_length(words)
    return words
