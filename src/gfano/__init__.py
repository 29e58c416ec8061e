"""Exact-arithmetic quantum periods of G-Fano threefolds and the
moonshine identities they satisfy.

Everything is computed over exact rationals: truncated power series,
Dedekind eta-products, Hauptmoduln of the moonshine groups, the D3
differential operators annihilating the normalized periods, and the
coefficient-by-coefficient verification that

    I_s(1/H_c) = eta_product · H_c^{σ₁/24}

holds for every higher-rank G-Fano family, specializing to the classical
E4 and Delta identities for the sextic double solid.
"""

from .series import (
    TruncatedSeries,
    laplace,
    inverse_laplace,
    regular_shift,
    normalize,
)
from .qexp import (
    QExpansion,
    ETA_PRODUCTS,
    eta,
    eta_product,
    sigma1,
    eisenstein_e4,
    discriminant,
    klein_j,
)
from .d3 import (
    D3Operator,
    OPERATORS,
    from_a_basis,
    apply_operator,
    apply_operator_in,
    holomorphic_solution,
)
from .periods import (
    FAMILIES,
    FamilyDescriptor,
    family,
    iseries,
    gseries,
    givental_constant,
    check_even_substitution,
    check_exp_relation,
)
from .hauptmodul import (
    hauptmodul,
    hauptmodul_json,
    renormalize_constant,
    inverse_hauptmodul,
    mirror_map,
    solve_hauptmodul_from_identity,
)
from .verify import (
    IdentityReport,
    m_series,
    verify_identity,
    sweep_free_shift,
    verify_kachru_vafa,
    verify_delta,
    verify_all,
)
from .mathieu import (
    FrameShape,
    M23_SHAPES,
    M24_EXTRA_SHAPES,
    M24_SHAPES,
    S24_EXTRA_SHAPES,
    phi,
    psi,
    epsilon,
    iota,
    rational_type,
    frobenius_mukai_check,
    mason_eta,
    hecke_eigenform_check,
    correspondence_report,
)

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries", "laplace", "inverse_laplace", "regular_shift",
    "normalize",
    "QExpansion", "ETA_PRODUCTS", "eta", "eta_product", "sigma1",
    "eisenstein_e4", "discriminant", "klein_j",
    "D3Operator", "OPERATORS", "from_a_basis", "apply_operator",
    "apply_operator_in", "holomorphic_solution",
    "FAMILIES", "FamilyDescriptor", "family", "iseries", "gseries",
    "givental_constant", "check_even_substitution", "check_exp_relation",
    "hauptmodul", "hauptmodul_json", "renormalize_constant",
    "inverse_hauptmodul", "mirror_map", "solve_hauptmodul_from_identity",
    "IdentityReport", "m_series", "verify_identity", "sweep_free_shift",
    "verify_kachru_vafa", "verify_delta", "verify_all",
    "FrameShape", "M23_SHAPES", "M24_EXTRA_SHAPES", "M24_SHAPES",
    "S24_EXTRA_SHAPES", "phi", "psi", "epsilon", "iota", "rational_type",
    "frobenius_mukai_check", "mason_eta", "hecke_eigenform_check",
    "correspondence_report",
]
