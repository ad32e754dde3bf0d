"""Modified Leray-alpha laboratory: torus spectral solver, Kolmogorov-flow
stability analysis, and global-attractor dimension bounds."""

__version__ = "0.1.0"


class NumericalError(RuntimeError):
    """A result that could not be computed: a non-finite state, a step past
    the CFL limit, a failed solve or a formula outside its domain (exit 3)."""
