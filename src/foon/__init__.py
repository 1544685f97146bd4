"""Task-tree retrieval over functional object-oriented networks."""

from .core import *
from .formats import *
from .retrieval import *

__version__ = "0.1.0"

__all__ = core.__all__ + formats.__all__ + retrieval.__all__
