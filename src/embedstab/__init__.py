"""Quantify, predict, and reduce run-to-run instability of word embeddings.

The package trains skip-gram negative-sampling embeddings under controlled
document sampling, measures how nearest neighborhoods and inner-product
structure vary across repeated runs, predicts that variation from a Gaussian
model of pairwise cosine similarities, reduces it by aligned averaging of
spaces, and applies the averaged spaces to diachronic semantic-change
detection.  The package exports every name in each module's `__all__`.
"""

__version__ = "0.1.0"

from . import align, change, corpus, gaussian, instability, overlap, pip_loss, sgns, space, stats

# Read before the star imports: `from .pip_loss import *` rebinds the name
# `pip_loss` from the module to the function.
__all__ = ["__version__", "tokenize"] + [
    name
    for module in (align, change, corpus, gaussian, instability, overlap, pip_loss, sgns, space, stats)
    for name in module.__all__
]

from .align import *  # noqa: F403
from .change import *  # noqa: F403
from .corpus import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .instability import *  # noqa: F403
from .overlap import *  # noqa: F403
from .pip_loss import *  # noqa: F403
from .sgns import *  # noqa: F403
from .space import *  # noqa: F403
from .stats import *  # noqa: F403

tokenize = corpus.tokenize
