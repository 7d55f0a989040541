"""kpplab: branching Markov particle systems and their Fisher-KPP-type fronts.

The package couples two representations of the same object: Monte Carlo
statistics of the left-most particle of a branching Markov process, and
deterministic solutions of the associated nonlinear front equation.  Both
sides expose the minimal wave speed, the recentered limit profile, and the
logarithmic front correction, so each can cross-validate the other.
"""

__version__ = "0.1.0"

from .kernels import INF, Kernel
from .model import (
    BranchingLaw,
    BranchingModel,
    Motion,
    log_laplace,
    model_from_dict,
)
from .spectral import (
    AssumptionReport,
    SpeedProfile,
    abscissa,
    check_assumptions,
    minimal_speed,
    second_moment_w,
)
from .simulate import (
    EnsembleResult,
    MartingaleTrace,
    MinimumSample,
    Population,
    RunConfig,
    advance,
    empirical_minima,
    empirical_v,
    martingales,
    prune,
    run_ensemble,
)
from .solve import (
    Field,
    FrontFit,
    FrontTrace,
    Grid,
    convolve,
    evolve,
    front_position,
    measure_front,
    picard_solve,
    track_front,
    traveling_wave_profile,
    wave_residual,
)
from .analyze import (
    ComparisonResult,
    DInfinityEnsemble,
    ProfileEstimate,
    align_shift,
    estimate_d_infinity,
    pde_profile,
    phi_from_martingale,
    recentered_cdf,
    u_vs_mc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
