"""Exact-arithmetic quantum periods of G-Fano threefolds and the
moonshine identities they satisfy.

Everything is computed over exact rationals: truncated power series,
Dedekind eta-products, Hauptmoduln of the moonshine groups, the D3
differential operators annihilating the normalized periods, and the
coefficient-by-coefficient verification that

    I_s(1/H_c) = eta_product · H_c^{σ₁/24}

holds for every higher-rank G-Fano family, specializing to the classical
E4 and Delta identities for the sextic double solid.

`import gfano` loads no submodule.  A public name imports its submodule
on first access (PEP 562), so a process pays only for the modules it
uses; `from gfano import *` loads them all.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

#: Each public name, mapped to the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in [
        ("series", "TruncatedSeries laplace inverse_laplace regular_shift normalize"),
        ("qexp", "QExpansion EtaQuotient ETA_PRODUCTS eta eta_product eisenstein_e4 "
                 "discriminant klein_j"),
        ("d3", "D3Operator OPERATORS apply_operator apply_operator_in holomorphic_solution"),
        ("periods", "FAMILIES FamilyDescriptor family iseries gseries givental_constant"),
        ("hauptmodul", "hauptmodul renormalize_constant inverse_hauptmodul mirror_map "
                       "solve_hauptmodul_from_identity"),
        ("verify", "IdentityReport verify_identity sweep_free_shift "
                   "verify_kachru_vafa verify_delta verify_all check_exp_relation"),
        ("mathieu", "FrameShape M23_SHAPES M24_EXTRA_SHAPES M24_SHAPES S24_EXTRA_SHAPES "
                    "phi psi epsilon iota rational_type frobenius_mukai_check mason_eta "
                    "hecke_eigenform_check correspondence_report"),
    ]
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(ModuleType):
    """The package's module type.  Loading a submodule binds it on the
    package under its own name; for `hauptmodul` that name is the public
    function, which must stay what `gfano.hauptmodul` returns."""

    def __setattr__(self, name, value):
        if name in _EXPORTS and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
