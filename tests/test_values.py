"""Value semantics of the nine record classes.

Each compares and hashes by its fields, shows them in repr, refuses
assignment and deletion, takes its fields by keyword, and survives
pickle and deepcopy with its cached attributes.  The repr strings are
pinned literally: they are part of what the CLI and the benchmark
answers print.
"""

import copy
import pickle

import pytest

from leecodes import (
    AnticodeSpec,
    DecoderTable,
    FiniteAbelianGroup,
    Homomorphism,
    KernelBasis,
    LinearLeeCode,
    SearchResult,
    ShiftedWindowTiling,
    build_decoder_table,
    construct_double_cross_hom,
    construct_dpl4,
    construct_pl1,
    decode,
    kernel_basis,
    lee_sphere,
    restrict_to_zq,
    search_lattice_tiling,
)
from leecodes.decoder import DecodeResult

# the fields each class compares, hashes and shows, in constructor order
FIELDS = {
    FiniteAbelianGroup: ("factors",),
    Homomorphism: ("group", "images", "half_image"),
    KernelBasis: ("rows", "det_abs"),
    SearchResult: ("status", "hom", "groups_tried", "assignments_tried", "nodes", "failures"),
    AnticodeSpec: ("kind", "n", "r", "axis"),
    LinearLeeCode: ("anticode", "hom", "basis", "q"),
    DecoderTable: ("code",),
    DecodeResult: ("codeword", "tile_vector"),
    ShiftedWindowTiling: ("R", "bits", "centers"),
}

CODE_REPR = (
    "LinearLeeCode(anticode=AnticodeSpec(kind='double-sphere', n=3, r=1, axis=1), "
    "hom=Homomorphism(group=FiniteAbelianGroup(factors=(12,)), images=((1,), (3,), (5,)), "
    "half_image=None), basis=KernelBasis(rows=((12, 0, 0), (3, -1, 0), (5, 0, -1)), "
    "det_abs=12), q=None, blocks=(((), 0, 3),))"
)


def _values():
    """One value of each class, as the library builds it."""
    code = construct_dpl4(3, 12)
    table = build_decoder_table(code)
    return [
        code.hom.group,
        construct_double_cross_hom(3),
        code.basis,
        search_lattice_tiling(lee_sphere(2, 1)),
        code.anticode,
        code,
        table,
        decode(table, (5, 4, 0)),
        ShiftedWindowTiling(6, "01", ((0, 0, 0),)),
    ]


def _by_keyword(value):
    names = FIELDS[type(value)] + (("blocks",) if type(value) is LinearLeeCode else ())
    return type(value)(**{name: getattr(value, name) for name in names})


def test_one_value_per_class():
    assert [type(v) for v in _values()] == list(FIELDS)


def test_reprs_are_pinned():
    code = construct_dpl4(3, 12)
    table = build_decoder_table(code)
    assert repr(code) == CODE_REPR
    assert repr(table) == f"DecoderTable(code={CODE_REPR})"
    assert repr(restrict_to_zq(code, 12)) == CODE_REPR.replace("q=None", "q=12")
    assert repr(decode(table, (5, 4, 0))) == (
        "DecodeResult(codeword=(5, 4, -1), tile_vector=(5, 4, -1))")
    assert repr(search_lattice_tiling(lee_sphere(2, 1))) == (
        "SearchResult(status='found', hom=Homomorphism(group=FiniteAbelianGroup(factors=(5,)), "
        "images=((1,), (2,)), half_image=None), groups_tried=1, assignments_tried=2, "
        "nodes=4, failures=(((5,), ((1,), (1,))),))")
    assert repr(construct_double_cross_hom(3)) == (
        "Homomorphism(group=FiniteAbelianGroup(factors=(24,)), images=((6,), (1,), (13,)), "
        "half_image=(3,))")
    assert repr(construct_pl1(2)) == (
        "LinearLeeCode(anticode=AnticodeSpec(kind='sphere', n=2, r=1, axis=1), "
        "hom=Homomorphism(group=FiniteAbelianGroup(factors=(5,)), images=((1,), (2,)), "
        "half_image=None), basis=KernelBasis(rows=((5, 0), (3, 1)), det_abs=5), q=None, "
        "blocks=None)")
    assert repr(ShiftedWindowTiling(6, "01", ((0, 0, 0),))) == (
        "ShiftedWindowTiling(R=6, bits='01', centers=((0, 0, 0),))")


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_keyword_construction_gives_an_equal_value(value):
    other = _by_keyword(value)
    assert other is not value
    assert other == value and not other != value
    assert hash(other) == hash(value)
    assert repr(other) == repr(value)


def test_defaults_and_fields_outside_equality():
    assert AnticodeSpec("sphere", 2, 1).axis == 1
    assert Homomorphism(FiniteAbelianGroup((5,)), ((1,), (2,))).half_image is None
    code = construct_dpl4(3, 12)
    bare = LinearLeeCode(code.anticode, code.hom, code.basis)
    assert bare.q is None and bare.blocks is None
    # blocks is shown but not compared
    assert bare == code and hash(bare) == hash(code)
    assert repr(bare) == CODE_REPR.replace("blocks=(((), 0, 3),)", "blocks=None")
    # any compared field tells values apart
    assert restrict_to_zq(code, 12) != code
    assert AnticodeSpec("sphere", 2, 1) != AnticodeSpec("sphere", 2, 1, axis=2)
    assert KernelBasis(((1,),), 1) != KernelBasis(((1,),), 2)


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_comparing_with_another_type_is_not_implemented(value):
    fields = tuple(getattr(value, name) for name in FIELDS[type(value)])
    others = [v for v in _values() if type(v) is not type(value)]
    for other in others + [fields, fields[0], None]:
        assert value.__eq__(other) is NotImplemented
        assert value != other and other != value


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_set_or_deleted(value):
    before = repr(value)
    for name in FIELDS[type(value)] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before and not hasattr(value, "extra")


@pytest.mark.parametrize("roundtrip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_roundtrips_keep_cached_attributes(roundtrip):
    hom = construct_double_cross_hom(3)
    kernel_basis(hom)
    code = construct_dpl4(6, 24)
    assert code.inverse is not None
    for value, cached in [(hom, "hnf"), (code, "inverse")]:
        assert cached in vars(value)
        copied = roundtrip(value)
        assert copied is not value
        assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)
        assert vars(copied) == vars(value)
        with pytest.raises(AttributeError):
            setattr(copied, cached, None)
    copied = roundtrip(DecoderTable(code))
    assert copied.inverse == code.inverse and copied.period == 24
