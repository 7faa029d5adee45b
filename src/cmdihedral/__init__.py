"""Toolkit for CM newform congruences attached to imaginary quadratic data:
class groups, Hecke characters with exact value rings, theta series, Serre
invariant predictions, and mod-ell congruence verification."""

from .qfield import (
    ClassGroup,
    IdealRep,
    QuadForm,
    QuadInt,
    class_group,
    compose,
    ideal_class,
    ideal_multiply,
    ideals_of_norm,
    kronecker,
    principal_generator,
    reduced_forms,
)
from .charmod import (
    HeckeChar,
    ReductionMap,
    ResidueGroup,
    TeichRep,
    ValueRing,
    build_hecke_char,
    build_reductions,
    evaluate,
    predict_conductor_at_v,
    prime_table,
    residue_group,
    table_exponents,
    table_images,
    teichmuller_lift,
    value_ring,
)
from .serrepred import (
    DihedralDatum,
    DirichletChar,
    LocalCase,
    SerrePrediction,
    charpoly_data,
    delta_conductor_at_ell,
    m_prime,
    nebentypus,
    predicted_level,
    ramification_case,
    taguchi_level,
    twist_char,
    twisted_level,
)
from .qseries import (
    QExpansion,
    delta_qexp,
    delta_qexp_recursion,
    drop_multiples,
    euler_product,
    prime_values,
    sturm_bound,
    sturm_index,
    theta_series,
    twist,
)
from .congruence import (
    TAU,
    CongruenceReport,
    EllipticCurve,
    Scenario,
    builtin_scenario,
    compare,
    curve_ap,
    curve_ap_naive,
    reduce_expansion,
    reduce_int_expansion,
    run_scenario,
    search_matching_char,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
