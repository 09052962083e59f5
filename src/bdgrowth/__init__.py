"""Growth-rate inference for supercritical birth-death processes.

Simulate sample genealogies through their coalescent-point-process
representation, estimate the net growth rate r = birth - death from the
coalescence times (calibrated pairwise-difference estimators, internal
branch lengths, logistic maximum likelihood), attach quantile-calibrated
confidence intervals, and ingest real ultrametric trees from Newick files.
"""

from .calibration import (
    ConstantsRow,
    MomentChecks,
    SnSample,
    build_constants_row,
    build_constants_table,
    c_bias,
    c_inv_closed_form,
    c_mse,
    load_constants_table,
    moment_identities_check,
    sample_sn,
    sn_quantiles,
    write_constants_table,
)
from .coalescent import (
    BirthDeathParams,
    ExactFiniteT,
    FixedNLimit,
    LargeN,
    check_finite_rows,
    delta_t,
    sample_coalescence_times_block,
    sample_q,
    sample_y,
)
from .confidence import ConfidenceSpec, coverage_study, make_regime
from .errors import (
    BdGrowthError,
    DegenerateTimes,
    InsufficientReplicates,
    MismatchedN,
    MissingBranchLength,
    NonConvergence,
    NonFiniteTimes,
    NotBinary,
    NotUltrametric,
    ParseError,
    RelativeAxisError,
    SampleTooSmall,
)
from .estimators import METHODS, MleFit, estimate_lengths
from .rng import RngStream
from .treeio import (
    TreeRecord,
    cpp_newick_rows,
    extract_coalescence_times,
    parse_newick_trees,
    tree_internal_branch_length,
)

__version__ = "0.1.0"
