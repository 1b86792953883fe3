"""serrelab: exact verification lab for Serre-functor periodicity on finite
lattices, with a type-A Cambrian engine and the polygon geometric model."""

from .errors import (
    CycleDetected,
    Disagreement,
    GuardrailExceeded,
    InputError,
    LatticeMismatch,
    MaxStepsExceeded,
    NotAComplex,
    NotALattice,
    PeriodViolation,
    RedundantCover,
    RotationViolation,
    SerrelabError,
)
from .fields import QQ, PrimeField, parse_field
from .lattice import (
    Antichain,
    IntervalRef,
    Lattice,
    Poset,
    boolean_lattice,
    boolean_partner,
    build_lattice,
    chain,
    chain_product,
    classify,
    is_boolean_antichain,
    is_dual_boolean_antichain,
    lattice_from_json_dict,
    lattice_to_json_dict,
    load_lattice,
    min_complement_antichain,
    order_dual,
    poset_isomorphism,
    product,
    support_antichain,
)
from .reps import (
    LatticeRep,
    RepMorphism,
    antichain_module,
    cokernel,
    direct_sum,
    dual_antichain_module,
    find_interval_iso,
    hom_basis,
    hom_dim,
    image,
    injective_module,
    interval_module,
    is_isomorphic,
    kernel,
    projective_module,
    simple_module,
    support_module,
)
from .derived import (
    GeneralComplexResult,
    ScalarComplex,
    SerreOrbit,
    StalkResult,
    antichain_coresolution,
    antichain_resolution,
    cohomology,
    nakayama,
    projective_resolution,
    serre,
    serre_by_resolution,
    serre_on_support,
    serre_orbit,
    serre_support,
    serre_walk,
)
from .coxeter import (
    CartanMatrix,
    CoxeterMatrix,
    SerreFormalReport,
    cartan_matrix,
    combinatorial_serre_check,
    coxeter_matrix,
    cross_check,
)
from . import geom, typea

__version__ = "0.1.0"
