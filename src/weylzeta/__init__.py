"""Exact representation-degree spectra of compact semisimple Lie groups.

Everything is integer or Fraction arithmetic; no floats touch a result.
The modules split by subject: root systems and their subsystems
(rootsys), degree enumeration and zeta coefficients (repdegrees),
dimension polynomials of weight pairs (weylpoly), the efficiency
invariant (efficiency), equal-spectrum quotient pairs (gassmann), the
reference-value ledger (verify), and the command line (cli).
"""

from .efficiency import (
    EffResult,
    compare,
    coxeter_bound,
    eff_bruteforce,
    eff_formula,
    enumerate_closed_subsystems,
)
from .gassmann import (
    DEFAULT_TRACE,
    DEFAULT_TWIST,
    GassmannReport,
    SignHom,
    TraceFunction,
    build_sign_hom,
    build_trace,
    dirichlet_coeffs,
    fourier_multiplicities,
    group_string,
    perm_equivalent,
    quotient_zeta,
    twist,
    verify_gassmann,
)
from .repdegrees import (
    DegreeTable,
    GroupSpec,
    allowable,
    dim_irrep,
    enumerate_dominant,
    euler_identity_check,
    prime_power_scan,
    zeta_coefficients,
    zeta_star_coefficients,
)
from .rootsys import (
    FamilyRank,
    RootSystem,
    Subsystem,
    all_types,
    build,
    classify_subsystem,
    orthogonal_subsystem,
    quadratic_nullspace_dim,
    spanning_check,
    weyl_orbit_equal,
)
from .verify import CheckResult, run_checks
from .weylpoly import (
    ExplicitPair,
    WeylPolynomial,
    degree,
    evaluate,
    explicit_pair,
    explicit_polynomial,
    ord_at_zero,
    pair_complement_claim,
    weyl_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DEFAULT_TRACE",
    "DEFAULT_TWIST",
    "DegreeTable",
    "EffResult",
    "ExplicitPair",
    "FamilyRank",
    "GassmannReport",
    "GroupSpec",
    "RootSystem",
    "SignHom",
    "Subsystem",
    "TraceFunction",
    "WeylPolynomial",
    "all_types",
    "allowable",
    "build",
    "build_sign_hom",
    "build_trace",
    "classify_subsystem",
    "compare",
    "coxeter_bound",
    "degree",
    "dim_irrep",
    "dirichlet_coeffs",
    "eff_bruteforce",
    "eff_formula",
    "enumerate_closed_subsystems",
    "enumerate_dominant",
    "euler_identity_check",
    "evaluate",
    "explicit_pair",
    "explicit_polynomial",
    "fourier_multiplicities",
    "group_string",
    "orthogonal_subsystem",
    "ord_at_zero",
    "pair_complement_claim",
    "perm_equivalent",
    "prime_power_scan",
    "quadratic_nullspace_dim",
    "quotient_zeta",
    "run_checks",
    "spanning_check",
    "twist",
    "verify_gassmann",
    "weyl_orbit_equal",
    "weyl_polynomial",
    "zeta_coefficients",
    "zeta_star_coefficients",
]
