"""Exact finite free probability: convolutions of characteristic polynomials,
Weingarten calculus, symmetric group characters, immanants, and Monte Carlo
cross-checks of all of it."""

import sys
from importlib import import_module

__version__ = "0.1.0"

# Every public name, under the submodule that defines it. A name, or a
# submodule, loads on first use (PEP 562), so a command loads only the
# layers it runs: the exact layer never loads numpy, and `commutator` loads
# no Weingarten, immanant, oracle or verify code.
_EXPORTS = {
    "partitions": (
        "Partition", "dominance_leq", "hooks_and_contents", "kostka", "partitions_of",
        "semistandard_tableaux", "set_partitions", "set_partitions_of_type",
        "split_chains", "two_column", "two_row",
    ),
    "symgroup": (
        "c_constant", "c_constant_bruteforce", "character", "character_table",
        "cycle_type", "dim_irrep", "inverse_kostka", "perm_sign",
    ),
    "symfunc": ("e_to_m", "eval_monomial", "eval_quasisym", "m_to_e", "schur_principal"),
    "weingarten": ("ClassFunction", "integrate_moment", "weingarten"),
    "immanants": ("delta_minus", "imm_delta_minus", "immanant_direct", "immanant_gj"),
    "polynomials": (
        "MonicPoly", "boxminus", "boxplus", "boxtimes", "commutator_coefficient",
        "commutator_poly", "z_poly",
    ),
    "oracle": (
        "alternating_binomial_pair", "brute_force_expected_ek", "gram_identity_residual",
        "identity_leftdep", "identity_rightdep", "rothe_hagen_pair", "telescoping_pair",
        "weingarten_gram_inverse",
    ),
    "util": ("CapExceededError",),
    "montecarlo": (  # needs numpy
        "McReport", "mc_charpoly", "mc_conjugation_mean", "mc_entry_moments", "within_band",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# What `from finfree import *` binds: no Monte Carlo name, so it loads no numpy.
__all__ = sorted(name for name, module in _HOME.items() if module != "montecarlo")


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})


class _Package(type(sys)):
    """The package module. `weingarten` names both a submodule and the
    function it defines, and the function is the public name: the import
    system's binding of the submodule, made when something first imports
    it, is dropped, so `finfree.weingarten` is the function in any import
    order."""

    def __setattr__(self, name, value):
        if name != "weingarten" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
