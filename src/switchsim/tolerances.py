"""Central table of numerical tolerances.

Each constant is referenced by the module that enforces the corresponding
contract; tests import from here instead of re-declaring magic numbers.
"""

# Algebraic identities on 2x2 matrices (adjoint/trace/product round-trips),
# and the slack of the pure-state and density-matrix checks.
ALGEBRA_TOL = 1e-12

# Hermiticity check before closed-form eigendecomposition.
HERMITIAN_TOL = 1e-10

# Relative discriminant below which a Hermitian matrix is treated as
# degenerate and the canonical basis is returned.  The collapsed spectrum
# perturbs the matrix by sqrt(discriminant), so the threshold sits at the
# square of the reconstruction tolerance.
EIG_DEGENERATE_TOL = 1e-20

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
# (probe aligned with or orthogonal to the Hamiltonian axis) sit at 0, as
# the flat directions' cells vanish; switching 10x faster than precession
# suppresses the coherence directions to ~2e-3 and ~5e-6 (beta = pi/4);
# healthy regimes (E >= 10 gamma_plus, 0.3 <= beta <= pi/2 - 0.3) stay above
# ~4e-2.  The threshold separates the two groups.
IDENTIFIABILITY_REL_TOL = 1e-2

# Stricter threshold on the fitted cells' information that refuses a fit:
# true rank deficiency (exact symmetry nulls, gauge directions, too few
# bins), as opposed to the reporting threshold above for weak directions.
RANK_DEFICIENCY_TOL = 1e-8

# Gradient-norm criterion for declaring a fit converged (relative to the
# deviance scale).
FIT_GRADIENT_TOL = 1e-8

# Free-parameter fit starts whose deviances differ by less than this
# fraction of the lowest (at least 1 count) reached one optimum: the summed
# deviance rounds at ~1e-10, so among them the lowest start index wins.
FIT_START_TIE_TOL = 1e-9

# A free fit evaluates the profiled deviance at this many Latin-hypercube
# points of its box, then polishes only the lowest of them.
FIT_SCAN_POINTS = 64

# The polish goes on from the next scan points until a start converges to a
# deviance at most this many standard deviations, sqrt(2 dof), above dof: at
# the optimum of a correct model the deviance is chi-squared on dof degrees
# of freedom, so a start that ends higher sits in a wrong basin.
FIT_PLAUSIBLE_SIGMAS = 5.0

# The polish takes at most this many scan points (or n_starts, if more), twice
# the starts a free fit searched from before it scanned, and ends there with
# the lowest optimum it reached: where the box holds more precession aliases
# than the scan resolves, no start may reach a plausible deviance.
FIT_POLISH_CAP = 16

# A free-fit start retires into a start that stopped on its gradient once
# that start's quadratic model (its J^T J about its optimum) predicts the
# start's actual excess deviance to within this many counts: the two lie in
# one basin, so searching on re-confirms the optimum.
FIT_RETIRE_TOL = 1.0

# The state-only fit's Newton iteration stops once a step is this many
# standard deviations long (its length in the Fisher metric).
FIT_NEWTON_STEP_TOL = 1e-9
