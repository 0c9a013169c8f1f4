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

# modules no lattice verb needs load on first use of a name they export,
# which is then bound here (PEP 562): these of finitegroup, and all of
# sandbox's __all__ (numpy loads later still, with the first norm)
_LAZY = {"finitegroup": ("FiniteAbelianGroup", "FiniteAction", "augmentation_ideal",
                         "build_BI", "check_no_intermediate_M2", "check_not_from_subgroup",
                         "extend_ideal")}


def __getattr__(name: str):
    # a submodule's name goes to the import system: `from rotalg import cli` loads neither
    if not name.startswith("_") and importlib.util.find_spec(f".{name}", __name__) is None:
        lazy = next((m for m, names in _LAZY.items() if name in names), "sandbox")
        module = importlib.import_module(f".{lazy}", __name__)
        names = _LAZY.get(lazy, module.__all__)
        globals().update({n: getattr(module, n) for n in names})
        if name in names:
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
