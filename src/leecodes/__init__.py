"""Diameter-perfect Lee codes via group-homomorphism lattice tilings."""

from .codes import (
    AnticodeSpec,
    LinearLeeCode,
    code_from_json,
    code_to_json,
    codeword_of_tile,
    codewords_in_window,
    codewords_mod_q,
    construct_dpl4,
    construct_pl1,
    is_admissible_q,
    min_distance_window,
    restrict_to_zq,
)
from .decoder import DecoderTable, build_decoder_table, decode, decode_modular
from .groups import (
    FiniteAbelianGroup,
    element_order,
    enumerate_abelian_groups,
    lex_rank,
)
from .lee import (
    double_sphere,
    double_sphere_size,
    lee_distance,
    lee_sphere,
    lee_weight,
)
from .nonregular import (
    ShiftedWindowTiling,
    code_from_window_tiling,
    component_index_n3,
    construct_double_cross_hom,
    half_kernel_basis,
    shifted_tiling_n3,
    verify_cover,
    verify_nonregular,
)
from .tiling import (
    Homomorphism,
    KernelBasis,
    SearchResult,
    apply_hom,
    is_bijection_on,
    kernel_basis,
    period,
    search_lattice_tiling,
    verify_window_tiling,
)
