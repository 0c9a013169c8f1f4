"""rotalg: exact calculus for the intermediate-subalgebra lattice of the
irrational rotation crossed product, plus numerical sandboxes.

The exact side (angles, circle sets, ideal functions) decides everything
with integer/rational arithmetic; the sandboxes (operator model, finite
group matrices) verify the algebraic machinery numerically and exactly at
desk scale.
"""

__version__ = "0.1.0"

import importlib
import importlib.util

from .angle import Angle, golden_angle, named_angle, silver_angle
from .circleset import (Arc, CirclePoint, ClosedCircleSet, covering_index,
                        render_svg, set_from_json, set_to_json)
from .idealfn import (BasicFunction, Certificate, CIdealFunction,
                      IdealFunction, JoinFunction, WindowFunction, all_empty,
                      canonical_decomposition, check_c_closed, check_closed,
                      classify_algebra, close, closed_join, closed_join_value,
                      extend_from_positive, function_from_json,
                      function_to_json, join_many, make_basic, make_ideal_IQ,
                      meet, naive_join, omega, q_intersection,
                      simplicity_report, support, triviality, values_equal,
                      window_function)
from .finitegroup import (FiniteAbelianGroup, FiniteAction,
                          augmentation_ideal, build_BI,
                          check_no_intermediate_M2, check_not_from_subgroup,
                          extend_ideal)


def __getattr__(name: str):
    """The names of `sandbox`, which imports numpy, load it on first use
    (PEP 562) and are then bound here.  A submodule's name is left to the
    import system, so that `from rotalg import cli` does not load it."""
    if not name.startswith("_") and importlib.util.find_spec(f".{name}", __name__) is None:
        sandbox = importlib.import_module(".sandbox", __name__)
        globals().update({n: getattr(sandbox, n) for n in sandbox.__all__})
        if name in sandbox.__all__:
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
