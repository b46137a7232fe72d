"""LP decoding of LDPC codes over BPSK/AWGN.

Library layout:

- ``tanner``   bipartite graphs, alist IO, random regular sampling, BFS tiers
- ``channel``  BPSK/AWGN, normalized LLRs, LLR preprocessing maps
- ``lpdec``    parity polytope constraints, simplex-backed LP/ML decoding
- ``pseudo``   tier-profile pseudo-codewords, pseudo-weights, error laws
- ``witness``  edge-weight certificates: parameters, matchings, exact LP
- ``simcli``   Monte Carlo drivers with reproducible substreams, CSV output
"""

from .channel import (
    ChannelParams,
    MapSpec,
    apply_map,
    bpsk,
    ebn0_db,
    high_noise_prob,
    normalized_llr,
    qfunc,
    transmit_awgn,
    trial_noise,
    trial_rng,
)
from .lpdec import (
    DecodeOutcome,
    PolytopeConstraints,
    build_constraints,
    enumerate_codewords,
    lp_decode,
    membership,
    ml_decode,
)
from .pseudo import (
    PseudoCodeword,
    PseudoweightBound,
    awgnc_pseudoweight,
    beats_zero,
    canonical_completion,
    canonical_profile,
    max_scaling_alpha,
    pseudoweight_bound,
    single_pcw_error_prob,
    wer_lower_bound,
)
from .simcli import (
    CellResult,
    ExperimentConfig,
    GraphSource,
    ProofSpec,
    ScanRow,
    ScanSpec,
    WitnessRateRow,
    emit_csv,
    run_pseudo_scan,
    run_wer,
    run_witness_rate,
)
from .tanner import (
    AlistError,
    BfsTiers,
    DisconnectedGraphError,
    GenerationError,
    TannerGraph,
    bfs_tiers,
    emit_alist,
    generate_regular,
    parse_alist,
)
from .witness import (
    ExpansionVerdict,
    FeasibilityVerdict,
    ParameterError,
    ProofParams,
    SigmaBudget,
    boundary_set,
    chernoff_sigma_budget,
    check_expansion,
    check_feasible,
    derive_params,
    find_delta_matching,
    high_noise_set,
    stopping_core,
    weights_from_matching,
    witness_search,
)

__version__ = "0.1.0"
