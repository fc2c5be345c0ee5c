from inspect import ismodule

import leecodes

# the names `import leecodes` exports; adding or removing one changes
# the public API, so it is done here on purpose and noted in README.md
PUBLIC_API = {
    # codes
    "AnticodeSpec", "LinearLeeCode", "code_from_json", "code_to_json",
    "codeword_of_tile", "codewords_in_window", "codewords_mod_q",
    "construct_dpl4", "construct_pl1", "is_admissible_q", "min_distance_window",
    "restrict_to_zq",
    # decoder
    "DecoderTable", "build_decoder_table", "decode", "decode_modular",
    # groups
    "FiniteAbelianGroup", "element_order", "enumerate_abelian_groups", "lex_rank",
    # lee
    "double_sphere", "double_sphere_size", "lee_distance", "lee_sphere", "lee_weight",
    # nonregular
    "ShiftedWindowTiling", "code_from_window_tiling", "component_index_n3",
    "construct_double_cross_hom", "half_kernel_basis", "shifted_tiling_n3",
    "verify_cover", "verify_nonregular",
    # tiling
    "Homomorphism", "KernelBasis", "SearchResult", "apply_hom", "is_bijection_on",
    "kernel_basis", "period", "search_lattice_tiling", "verify_window_tiling",
}


def test_public_api_is_pinned():
    exported = {name for name, value in vars(leecodes).items()
                if not name.startswith("_") and not ismodule(value)}
    assert exported == PUBLIC_API
