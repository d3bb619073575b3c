"""Simulation and rate inference for a logistic growth diffusion.

A bounded growth process on (0, K) driven by a time-varying
transmission intensity and a time-varying noise intensity.  The
package provides its exact transition law, exact path simulation, a
moment-based estimator of both intensity curves, a homogeneous-rates
maximum likelihood baseline, and a replicated-experiment harness with
CSV reporting.
"""

from . import spline, rates, model, simulate, estimate, experiments, dataio
from ._version import __version__

# every public name of the seven library modules, re-exported under the
# one list each module keeps in its own __all__
__all__ = ["__version__"]
for _module in (spline, rates, model, simulate, estimate, experiments, dataio):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
