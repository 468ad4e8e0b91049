"""forceknn: abstaining k-NN classification of insertion force signals.

Pipeline: smooth and down-sample a force trace into a feature vector,
classify it against a labelled reference set with a minimum-agreement
voting rule, and grow that reference set online by falling back to a label
oracle whenever the vote abstains. Includes a synthetic profile generator,
evaluation metrics and a reporting/grid-search CLI.
"""

__version__ = "0.1.0"

from . import classifier, datagen, dataset_io, grid, metrics, online, signal
from .signal import *
from .classifier import *
from .online import *
from .metrics import *
from .datagen import *
from .dataset_io import *
from .grid import *

# Each module's ``__all__`` is its public API; the package re-exports them in this order.
__all__ = ["__version__"]
__all__ += signal.__all__
__all__ += classifier.__all__
__all__ += online.__all__
__all__ += metrics.__all__
__all__ += datagen.__all__
__all__ += dataset_io.__all__
__all__ += grid.__all__
