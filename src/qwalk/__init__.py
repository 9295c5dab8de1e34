"""Coined quantum walk on the half line and its line-walk copy.

Four independent routes to the same distributions: unitary evolution,
combinatorial closed forms, the exact rational oracle at theta = pi/4, and
weak-limit densities, plus the verification suites that cross-check them.
"""
from .asymptotics import (
    ApproxKind,
    DensityKind,
    KSReport,
    LimitDensity,
    approx_prob,
    cdf_at,
    density_at,
    ks_distance,
    total_mass,
)
from .closed_form import (
    ExactParams,
    FormulaDomainError,
    Precision,
    PrecisionError,
    half_line_exact,
    half_line_exact_by_inner,
    half_line_exact_total,
    half_line_exact_values,
    line_exact,
    line_exact_values,
)
from .core import (
    Coin,
    Distribution,
    State,
    WalkKind,
    initial,
    make_coin,
    make_coin_pi,
)
from .evolution import (
    distribution,
    evolve,
    iter_states,
    step,
)
from .harness import (
    CheckResult,
    OutputTable,
    VerificationReport,
    emit,
    figure_data,
    run_checks,
)
from .qfield import (
    OracleLimitError,
    q2_oracle_distribution,
    q2_oracle_series,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxKind",
    "CheckResult",
    "Coin",
    "DensityKind",
    "Distribution",
    "ExactParams",
    "FormulaDomainError",
    "KSReport",
    "LimitDensity",
    "OracleLimitError",
    "OutputTable",
    "Precision",
    "PrecisionError",
    "State",
    "VerificationReport",
    "WalkKind",
    "approx_prob",
    "cdf_at",
    "density_at",
    "distribution",
    "emit",
    "evolve",
    "figure_data",
    "half_line_exact",
    "half_line_exact_by_inner",
    "half_line_exact_total",
    "half_line_exact_values",
    "initial",
    "iter_states",
    "ks_distance",
    "line_exact",
    "line_exact_values",
    "make_coin",
    "make_coin_pi",
    "q2_oracle_distribution",
    "q2_oracle_series",
    "run_checks",
    "step",
    "total_mass",
]
