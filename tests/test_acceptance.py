"""End-to-end acceptance checks, one test per headline claim.

Each test runs a verification suite at its full advertised size and prints
the per-check PASS/FAIL lines, so a -v run gives one verdict per claim and
the captured output explains any failure.
"""

from finfree.verify import (
    VerifyRun,
    verify_cconst,
    verify_convolution,
    verify_flagship,
    verify_haar,
    verify_identities,
    verify_immanant,
    verify_oddk,
    verify_weingarten,
)


def _report(results):
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def test_criterion_1_triple_route_equality():
    # closed coefficients == convolution of polynomials == brute-force
    # minor/moment expansion, exactly, on full integer grids for d=2,3
    # (spectra from {-2..2}) and 50 seeded random pairs for d=4, all k
    _report(verify_convolution(VerifyRun()))


def test_criterion_2_flagship_value():
    # d=2, spectra (1,-1): every exact route gives x^2 + 8/3 and a
    # 200k-sample Monte Carlo run lands within four standard errors
    _report(verify_flagship(VerifyRun()))


def test_criterion_3_odd_coefficients_vanish():
    # odd-degree-complement coefficients are exactly zero on all routes
    _report(verify_oddk(VerifyRun()))


def test_criterion_4_weingarten_layer():
    # closed Wg order-2 values for d=2..6, exact entry moments, 100k-sample
    # Monte Carlo bands, the orthogonality-relation oracle for every
    # k<=d<=8, and the Gram identity residual for k<=4
    _report(verify_weingarten(VerifyRun()))


def test_criterion_5_immanant_routes():
    # eigenvalue-difference immanant closed form vs direct character sum
    # for all shapes k<=7 on 20 spectra each; multilinear extraction vs
    # direct on random matrices up to n=5
    _report(verify_immanant(VerifyRun()))


def test_criterion_5_immanant_routes_seed_7():
    # the same two comparisons on the seed the ROADMAP gates name
    _report(verify_immanant(VerifyRun(seed=7)))


def test_criterion_6_subgroup_constants():
    # scalar action constants: closed form vs character brute force for
    # every shape pair k<=5 at every cycle type, zero off dominance
    _report(verify_cconst(VerifyRun()))


def test_criterion_7_identity_suite():
    # transition identities, padding, split chains, telescoping Kostka,
    # both binomial identities, and the two dependence-factor identities
    _report(verify_identities(VerifyRun()))


def test_criterion_8_haar_sampler():
    # sampler unitarity below 1e-10 and E[U X U*] = (tr X / d) I within
    # four standard errors at 100k samples for d in {2, 3, 5}
    _report(verify_haar(VerifyRun()))
