"""Affine Weyl group combinatorics of the GU(2,n-2) basic locus."""

from .weyl import *
from .roots import *
from .reduction import *
from .gu import *

__version__ = "0.1.0"
