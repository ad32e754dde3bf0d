"""Modified Leray-alpha laboratory: torus spectral solver, Kolmogorov-flow
stability analysis, and global-attractor dimension bounds."""

import contextlib
import os

__version__ = "0.1.0"

# Each tolerance is defined here once, imported by the module that enforces
# it, and recorded in every run's manifest under its _TOLERANCES key.
SIGMA_REAL_TOL = 1e-10  # an eigenvalue is real where |Im| < SIGMA_REAL_TOL (1 + |Re|)
DECAY_TAIL_TOL = 1e-8  # eigenvector tail below which a mode counts as decaying
RESIDUAL_TOL = 1e-8  # residual ceiling of an accepted eigenpair
LAMBDA0_REL_WIDTH = 1e-8  # relative width across which sigma_hat changes sign at Lambda_0
LIFT_RESIDUAL_TOL = 1e-8  # ceiling on each relative residual of a lifted mode's equations
_MEAN_TOL = 1e-14  # a field's mean coefficient, relative to max(1, largest |coefficient|)
_TOLERANCES = {
    "sigma_real_tol": SIGMA_REAL_TOL,
    "decay_tail_tol": DECAY_TAIL_TOL,
    "eigen_residual_tol": RESIDUAL_TOL,
    "lambda0_rel_width": LAMBDA0_REL_WIDTH,
    "lift_residual_tol": LIFT_RESIDUAL_TOL,
    "field_mean_tol": _MEAN_TOL,
}


class NumericalError(RuntimeError):
    """A result that could not be computed: a non-finite state, a step past
    the CFL limit, a failed solve or a formula outside its domain (exit 3)."""


@contextlib.contextmanager
def _atomic_open(path):
    """Write text to ``path``.tmp and rename it onto ``path`` when the block
    ends, or delete it if the block raises: no file is ever left half written."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
