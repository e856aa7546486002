"""littlelab: a desk-scale laboratory for computable online learning.

Exact finite hypothesis classes, Littlestone-dimension engines, adversarial
mistake-bound games, significant-input analysis, a toy register-machine
substrate with halting oracles, machine-backed hypothesis families, and
exact-rational online-to-batch conversion.
"""

from .budget import FuelExhaustedError, FuelTank
from .classes import (EnumerableClass, FiniteClass, Hypothesis, hd_prime,
                      singletons, thresholds)
from .core import (LabeledInstance, NotInRangeError, Sample, canonical_index,
                   decode_canonical, decode_sample, decode_sequence,
                   encode_sample, encode_sequence)
from .errors import InstanceTooLargeError, NotRealizableError, PropertyViolation
from .game import (GameValue, Horizon, Verdict, is_anytime_optimal, is_optimal,
                   mistake_bound, mistakes_on_sample, optimal_mistake_bound,
                   optimal_post_sample_bound)
from .littlestone import (ShatteredTree, find_shattered_tree, ldim,
                          max_witness_depth, verify_shattered_tree)

__version__ = "0.1.0"
