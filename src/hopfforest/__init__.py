"""Exact antipode computations for graded right-handed polynomial Hopf
algebras: coproduct tables, decorated-tree expansions, linearizations, three
equivalent antipode methods, and the preLie/enveloping-algebra machinery that
produces such tables by dualization.
"""

from .algebra import (
    Monomial,
    Multiset,
    Polynomial,
    Tensor,
    mono,
    multiset,
)
from .antipode import (
    METHODS,
    TermStats,
    antipode_bogoliubov,
    antipode_dyson_salam,
    antipode_forest,
    antipode_generator,
    antipode_poly,
    term_stats,
)
from .coproduct import (
    coassociativity_report,
    convolution_check,
    coproduct_poly,
    counit_report,
    iterated_reduced,
    iterated_reduced_poly,
    monomials_up_to,
)
from .errors import ConstructionError, InputError
from .hopfspec import (
    CoproductEntry,
    CoproductSpec,
    Generator,
    faa_di_bruno_spec,
    load_spec,
    load_spec_file,
    save_spec,
    sym_spec,
)
from .linearize import Linearization, chain_of, k_linearizations
from .prelie import (
    PreLieSpec,
    brace_action,
    dualize,
    filtration_report,
    grafting_instance,
    guin_oudom_mul,
    guin_oudom_poly,
    load_prelie,
    load_prelie_file,
    prelie_check,
    rooted_tree_shapes,
    save_prelie,
)
from .trees import (
    DecoratedTree,
    PosetView,
    enumerate_trees,
    leaf,
    node,
    tree_multiplicity,
    tree_notation,
)

__version__ = "0.1.0"
