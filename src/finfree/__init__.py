"""Exact finite free probability: convolutions of characteristic polynomials,
Weingarten calculus, symmetric group characters, immanants, and Monte Carlo
cross-checks of all of it."""

from .partitions import (
    Partition,
    dominance_leq,
    hooks_and_contents,
    kostka,
    partitions_of,
    semistandard_tableaux,
    set_partitions,
    set_partitions_of_type,
    split_chains,
    two_column,
    two_row,
)
from .symgroup import (
    c_constant,
    c_constant_bruteforce,
    character,
    character_table,
    class_size,
    cycle_type,
    dim_irrep,
    inverse_kostka,
    perm_sign,
)
from .symfunc import (
    SymExpansion,
    e_to_m,
    eval_elementary,
    eval_monomial,
    eval_quasisym,
    m_to_e,
    schur_principal,
)
from .weingarten import ClassFunction, integrate_moment, weingarten
from .immanants import (
    delta_minus,
    imm_delta_minus,
    immanant_direct,
    immanant_gj,
)
from .polynomials import (
    MonicPoly,
    boxminus,
    boxplus,
    boxtimes,
    commutator_coefficient,
    commutator_poly,
    z_poly,
)
from .oracle import (
    alternating_binomial_pair,
    brute_force_expected_ek,
    gram_identity_residual,
    identity_leftdep,
    identity_rightdep,
    rothe_hagen_pair,
    telescoping_pair,
    weingarten_gram_inverse,
)
from .util import CapExceededError

__version__ = "0.1.0"

# The Monte Carlo layer needs numpy; it loads on first use of one of these
# names (PEP 562), so the exact layer imports without it.
_MONTECARLO_NAMES = frozenset(
    ("McReport", "mc_charpoly", "mc_conjugation_mean", "mc_entry_moments", "within_band")
)


def __getattr__(name):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
