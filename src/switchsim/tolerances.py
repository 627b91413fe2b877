"""Central table of numerical tolerances.

Each constant is referenced by the module that enforces the corresponding
contract; tests import from here instead of re-declaring magic numbers.
"""

# Algebraic identities on 2x2 matrices (adjoint/trace/product round-trips).
ALGEBRA_TOL = 1e-12

# Hermiticity check before closed-form eigendecomposition.
HERMITIAN_TOL = 1e-10

# Relative discriminant below which a Hermitian matrix is treated as
# degenerate and the canonical basis is returned.  The collapsed spectrum
# perturbs the matrix by sqrt(discriminant), so the threshold sits at the
# square of the reconstruction tolerance.
EIG_DEGENERATE_TOL = 1e-20

# Trace below which a density matrix cannot be normalized.
ZERO_TRACE_TOL = 1e-15

# Relative gap below which the two outcome probabilities of a measurement
# decomposition count as degenerate.
DECOMPOSE_DEGENERATE_TOL = 1e-12

# Outcome-probability floor below which fidelity is undefined.
ZERO_OUTCOME_TOL = 1e-300

# Target absolute accuracy for adaptive quadrature of fidelity averages.
QUADRATURE_TOL = 1e-8

# Survival-function inversion: a solve ends once its step falls below this
# fraction of the pulse, and a sampled switching time is accepted only if
# |S(t) - u| stays within the residual bound.
INVERSION_STEP_REL_TOL = 1e-10
INVERSION_RESIDUAL_TOL = 1e-7

# Regime guard for the slow-measurement closed forms: E >= REGIME_FACTOR * gamma_plus.
REGIME_FACTOR = 10.0

# Relative singular-value threshold for flagging degenerate directions in
# the identifiability information matrix.  Exactly degenerate configurations
# (probe aligned with or orthogonal to the Hamiltonian axis) sit at ~1e-22;
# switching 10x faster than precession suppresses the coherence directions
# to ~2e-3; healthy regimes stay above ~3e-2.  The threshold separates the
# two groups.
IDENTIFIABILITY_REL_TOL = 1e-2

# Stricter threshold used by the fitter to refuse a fit outright: true rank
# deficiency (exact symmetry nulls and gauge directions), as opposed to the
# reporting threshold above for practically weak directions.
RANK_DEFICIENCY_TOL = 1e-8

# Gradient-norm criterion for declaring a fit converged (relative to the
# deviance scale).
FIT_GRADIENT_TOL = 1e-8

# The state-only fit's Newton iteration stops once a step is this many
# standard deviations long (its length in the Fisher metric).
FIT_NEWTON_STEP_TOL = 1e-9
