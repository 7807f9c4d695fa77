"""Exact canonical heights, reduction data and effective torsion bounds for
Drinfeld modules over the rational function field F_q(t).

Everything is exact: finite-field arithmetic on int encodings, rational
functions as reduced fraction pairs, valuations as ints, heights and
thresholds as Fractions.  See the README for the CLI and the verification
suite.
"""

from drinheights._polycore import backend_name
from drinheights.drinfeld import DrinfeldModule, ReductionData
from drinheights.errors import (BudgetExhaustedError, IsotrivialModuleError,
                                MonicizeError, NonMonicError)
from drinheights.gf import (ExtensionField, FieldError, FqElem, PrimeField,
                            ResidueFieldError, additive_kernel,
                            additive_preimages, finite_field)
from drinheights.heights import (HeightValue, check_t2mwg, global_height,
                                 global_height_breakdown, height_via_embedding,
                                 lehmer_bounds, local_height)
from drinheights.perfect import (InsepLevel, insep_level, key_dichotomy_check,
                                 lehper_check)
from drinheights.places import (INFINITY, FinitePlace, InfinitePlace, Place,
                                PlaceExtension, SubstitutionEmbedding,
                                extend_places, support)
from drinheights.ratfunc import (Poly, RatFunc, factor, is_irreducible, ord_at,
                                 parse_poly, parse_ratfunc)
from drinheights.skew import SkewPoly, skew_degree
from drinheights.torsion import (annihilator_bound, annihilator_of,
                                 is_torsion, kernel_in_K, torsion_enumerate)

__version__ = "0.1.0"
