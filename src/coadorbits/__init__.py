"""Exact-arithmetic coadjoint orbits for triangular nilpotent Lie algebras.

Types A, B and D: root systems and bracket tables pinned to explicit matrix
realizations, the coadjoint action and exact orbit dimensions, the
defining-equation charts of elementary orbits, the type-A basic-subset
calculus, and a brute-force oracle certifying every closed form.
"""

from .basic import (
    BasicMap,
    BasicSubset,
    DecompositionResult,
    achievable_dimensions,
    basic_map,
    basic_point,
    basic_subset,
    decompose,
    derived_set,
    enumerate_basic_subsets,
    is_basic,
    max_dimension,
    max_singular_witness,
    s_of,
    witness_basic_subsets,
)
from .functionals import (
    Functional,
    GroupWord,
    SkewForm,
    coadjoint_apply,
    coadjoint_apply_one,
    e_star,
    functional,
    functional_from_json,
    functional_to_json,
    orbit_dimension,
    radical_basis,
    skew_form,
    zero_functional,
)
from .oracle import (
    CERTIFIED_SIGN_RULE,
    DEFAULT_SEED,
    OracleReport,
    random_orbit_point,
    resolve_sign_conventions,
    run_suite,
)
from .orbits import (
    OrbitChart,
    SingularData,
    chart_point,
    construct_group_word,
    contains,
    orbit_chart,
    singular_set,
    singular_size_formula,
)
from .polynomials import Polynomial
from .roots import (
    BracketTable,
    MatrixRealization,
    PositiveRoot,
    RootSystem,
    RootSystemKind,
    bracket,
    diff,
    get_system,
    parse_root,
    positive_roots,
    root_vector,
    short,
    structure_table,
    sum_root,
)

__version__ = "0.1.0"
