"""Exact simulation and analysis of 1D coined quantum walks whose coin is
kicked each step by a time-linear spin-x rotation (or its gauged spin-z twin).

The walk applies W(t) = S * R_x(t * phi) * C at step t, where S is the
spin-conditioned shift, C a fixed SU(2) coin, and phi the field angle.  The
package provides the exact state-vector evolution, momentum-space analysis of
the m-step regrouped dynamics for rational fields phi = 2*pi*n/m, revival
detection and scaling laws, continued-fraction tooling for irrational fields,
a noisy-field ensemble model, the gauged/electric formulation, and a CLI.
"""

from .cfrac import (ContinuedFraction, Convergent, FieldClassification,
                    approximation_check, cf_expand, classify_field,
                    evaluate, golden_ratio_fraction)
from .gauge import GaugePhase, apply_gauge, electric_evolve, verify_gauge_equivalence
from .momentum import (alpha_tilde, alpha_tilde_sup, dispersion, regrouped_block,
                       regrouped_trace, trace_formula)
from .noise import NoiseConfig, ensemble_series, noise_bound, noise_bound_for
from .revivals import (RevivalReport, expected_sign, irrational_revival_bound,
                       revival_deviation, revival_reports, revival_time)
from .spinops import eigenbasis_unitary2, is_unitary, make_coin, rotation_x
from .walk import (Field, TimeRule, WalkParams, WalkState, bloch_vector, evolve,
                   evolve_tracking_origin, support_radius)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # spin operators
    "rotation_x", "make_coin", "is_unitary", "eigenbasis_unitary2",
    # walk core
    "Field", "TimeRule", "WalkParams", "WalkState", "evolve",
    "evolve_tracking_origin", "bloch_vector", "support_radius",
    # momentum analysis
    "regrouped_block", "alpha_tilde", "alpha_tilde_sup", "trace_formula",
    "regrouped_trace", "dispersion",
    # revivals
    "RevivalReport", "revival_deviation", "expected_sign", "revival_time",
    "revival_reports", "irrational_revival_bound",
    # continued fractions
    "Convergent", "ContinuedFraction", "FieldClassification",
    "golden_ratio_fraction", "cf_expand", "evaluate", "approximation_check",
    "classify_field",
    # noise
    "NoiseConfig", "noise_bound", "noise_bound_for", "ensemble_series",
    # gauge
    "GaugePhase", "apply_gauge", "electric_evolve", "verify_gauge_equivalence",
]
