"""Table-driven decoding for linear perfect Lee codes.

The table is phi's inverse on the anticode, a dict from phi(w) to the
sparse form of w, derived once per code (LinearLeeCode.inverse).
Decoding a word a costs one packed evaluation of phi, one dict lookup
and the subtraction of the at most r + 1 nonzeros of an anticode point:
a decodes to the kernel vector l = a - inverse[phi(a)], then to the
codeword of the tile at l.
"""

from __future__ import annotations

from .codes import _check_modulus, apply_transversal
from .errors import ConstructionError, _Frozen
from .tiling import apply_hom, period


class DecoderTable(_Frozen):
    """phi's inverse on the anticode of code, and the code's period.

    Both are derived from code, so inverse[g] is the sparse form of an
    anticode point with phi = g for every g in G, and neither is part
    of ==, hash or repr.  The inverse is the code's own (code.inverse),
    computed once however many tables share the code.
    """

    _fields = ("code",)

    def __init__(self, code: "LinearLeeCode"):
        object.__setattr__(self, "code", code)
        inv = self.code.inverse
        if inv is None:
            raise ConstructionError("phi is not bijective on the anticode")
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "period", period(self.code.hom))


def build_decoder_table(code):
    """The decoder table of code: phi's inverse on its anticode and its period."""
    return DecoderTable(code)


class DecodeResult(_Frozen):
    _fields = ("codeword", "tile_vector")

    def __init__(self, codeword: tuple, tile_vector: tuple):
        object.__setattr__(self, "codeword", codeword)
        object.__setattr__(self, "tile_vector", tile_vector)


def decode(table, a):
    """Decode a word of Z^n to its codeword and tile translation vector.

    phi(inverse[g]) = g, so l = a - inverse[phi(a)] is in the kernel;
    inverse[g] is sparse, so only its nonzeros are subtracted.
    """
    l = list(a)
    for i, x in table.inverse[apply_hom(table.code.hom, a)]:
        l[i] -= x
    l = tuple(l)
    return DecodeResult(codeword=apply_transversal(table.code, l), tile_vector=l)


def decode_modular(table, a, q):
    """Decode in Z_q^n: decode any lift, then reduce the codeword mod q."""
    _check_modulus(q, table.period)
    res = decode(table, tuple(a))
    return tuple(x % q for x in res.codeword)
