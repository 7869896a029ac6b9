"""riskdesk: desk-scale dynamic risk measurement under model uncertainty.

Finite scenario lattices with capacities and dual representations of
conditional risk measures, time-consistency diagnostics, pasting-stable
(rectangular) measure families with robust backward recursion,
uncertain-volatility band pricing, and damped Skorokhod metrics on
half-open time domains.
"""

from .lattice import (
    NodeRef,
    RandomVariable,
    ScenarioLattice,
    StoppingTime,
    build_lattice,
    coordinate_process,
    lift,
    uniform_tree,
    validate_stopping_time,
)
from .measures import (
    Measure,
    MeasureFamily,
    capacity,
    charged_mask,
    check_restriction,
    conditional_expectation,
    dual_witness,
    mix_measures,
    reference_measure,
)
from .fixtures import (
    fix_a_family,
    fix_a_lattice,
    iid_binary_measure,
    random_family,
    random_lattice,
    random_measure,
    random_rv,
    trinomial_tree,
)
from .risk import (
    DualRep,
    minimal_penalty,
    rm_evaluate,
)
from .dynamics import (
    OneStepStructure,
    acceptance_decompose,
    build_dynamic,
    check_cocycle,
    dual_form_violation,
    expand_dual,
    supermartingale_check,
)
from .stability import (
    enumerate_selections,
    is_stable,
    paste,
    rectangular_hull,
    robust_evaluate,
)
from .gexp import (
    CFLError,
    GridSpec,
    PayoffSpec,
    VolatilityBand,
    bid_ask,
    conditional_gexp,
    expectation_under_field,
    random_inband_field,
    quadratic_variation,
    robust_lattice_price,
)
from .skorokhod import (
    PLContinuousPath,
    StepPath,
    TimeChange,
    alpha_inv,
    alpha_map,
    concat,
    convergence_witness,
    dhat_distance,
    dm_distance,
    g_damping,
    j1_distance,
    project_path,
    split_concat,
    transform_path,
)

__version__ = "0.1.0"
