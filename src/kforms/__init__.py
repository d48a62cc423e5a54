"""kforms: exact and fast evaluation of double Kloosterman sums, weighted
trilinear forms, and the counting quantities that control their size, plus a
sweep harness that measures each quantity against its reference envelope."""

from .characters import (
    build_characters,
    character_values,
    energy_character_identity,
    eval_character,
    fourth_moment,
    interval_character_sums,
    moment_identity_check,
)
from .counts import (
    CountReport,
    average_reciprocal_sweep,
    multiplicative_energy,
    reciprocal_count_mod,
    reciprocal_count_naive,
    reciprocal_count_rational,
    reciprocal_moment_identity,
)
from .kloosterman import (
    KloostermanTable,
    double_fast,
    double_naive,
    single_sum,
    single_table,
    weil_reference,
)
from .reports import BoundReport, SweepResult, emit_report, fit_exponent, read_report
from .ring import (
    IntervalSet,
    NotAUnitError,
    ResidueRing,
    build_ring,
    centered_dist,
    centered_rep,
    cyclic_dft,
    eq_eval,
    euler_phi,
    factorize,
    interval_phase_sum,
    is_prime,
    mod_inverse,
)
from .sweeps import (
    DEFAULT_GRIDS,
    allowed_exceptions,
    resolve_interval,
    stable_seed,
    verify_lemma_sweeps,
    verify_thm1_sweep,
    verify_thm2_sweep,
)
from .trilinear import (
    DyadicDecomposition,
    ProofTrace,
    TraceCell,
    TrilinearInstance,
    WeightVector,
    dyadic_decomposition,
    make_weights,
    proof_trace,
    theorem1_bounds,
    trilinear_fast,
    trilinear_naive,
    window_sums,
)

__version__ = "0.1.0"
