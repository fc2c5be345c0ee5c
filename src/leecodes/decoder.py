"""Table-driven decoding for linear perfect Lee codes.

The table stores the inverse of the homomorphism's restriction to the
anticode, indexed by lexicographic element rank.  Decoding a word costs
one evaluation of phi, one rank computation, one table read and a
check of the entry read against phi at the cost of its few nonzeros;
the table is built once and never rebuilt on the decode path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub

from .codes import apply_transversal
from .errors import ConstructionError, DomainError, PeriodicityError
from .groups import lex_rank
from .lee import format_word, nonzeros
from .tiling import apply_hom, apply_hom_sparse, inverse_on, period


@dataclass(frozen=True)
class DecoderTable:
    code: "LinearLeeCode"
    entries: tuple  # slot lex_rank(g) - 1 holds f(g) in the anticode
    # derived from code and entries, so a replaced field cannot leave them stale
    _sparse: tuple = field(init=False, repr=False, compare=False)
    _period: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_sparse", tuple(nonzeros(w) for w in self.entries))
        object.__setattr__(self, "_period", period(self.code.hom))

    def dump(self):
        """Rank-indexed audit listing, one `rank: word` line per slot."""
        return "\n".join(
            f"{rank}: {format_word(w)}" for rank, w in enumerate(self.entries, 1)
        )


def build_decoder_table(code):
    """Invert the restriction of phi to the anticode, one pass."""
    inv = inverse_on(code.hom, code.anticode.points())
    if inv is None:
        raise ConstructionError("phi is not bijective on the anticode")
    # elements() runs in lex order, so slot lex_rank(g) - 1 holds inv[g]
    entries = tuple(inv[g] for g in code.hom.group.elements())
    return DecoderTable(code=code, entries=entries)


@dataclass(frozen=True)
class DecodeResult:
    codeword: tuple
    tile_vector: tuple


def decode(table, a):
    """Decode a word of Z^n to its codeword and tile translation vector."""
    hom = table.code.hom
    g = apply_hom(hom, a)
    idx = lex_rank(g, hom.group) - 1
    # kernel membership of l = a - w is part of the decode contract:
    # phi(l) = phi(a) - phi(w) vanishes iff phi(w) = g
    if apply_hom_sparse(hom, table._sparse[idx]) != g:
        raise ConstructionError(f"table entry {table.entries[idx]} does not map to {g}")
    l = tuple(map(sub, a, table.entries[idx]))
    return DecodeResult(codeword=apply_transversal(table.code, l), tile_vector=l)


def decode_modular(table, a, q):
    """Decode in Z_q^n: decode any lift, then reduce the codeword mod q."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if q % table._period != 0:
        raise PeriodicityError(f"period {table._period} does not divide q = {q}")
    res = decode(table, tuple(a))
    return tuple(x % q for x in res.codeword)
