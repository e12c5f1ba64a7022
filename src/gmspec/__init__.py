"""Exact computation of generalized Markov numbers and discrete spectra.

The package builds, entirely in exact arithmetic: solution trees of the
generalized Markov equation with number-position pairs and characteristic
numbers; the attached 2x2 matrices with their convergent-matrix
factorization; admissible sequences from sign rules on the triangulated
square lattice; snake-graph matching counts; lattice lengths and distances;
and the resulting spectrum values as canonical quadratic surds.
"""

from .exact import (
    Mat2,
    QuadSurd,
    cf_matrix,
    cf_eval_periodic,
    periodic_cf_expansion,
)
from .farey import (
    FareyTriple,
    IrreducibleFraction,
)
from .gmtree import (
    ALTERNATING,
    ALL_SIGMAS,
    GMNode,
    GMPair,
    GMParams,
    characteristic_number,
    enumerate_tree,
    format_sigma,
    gm_check,
    gm_node,
    gm_pair,
    parse_sigma,
)
from .cohn import cohn_closed_form, cohn_recursive, d_matrix
from .snake import (
    SnakeGraph,
    build_snake_graph,
    continuant,
    count_matchings_bruteforce,
    rotation_tails,
)
from .lattice import (
    admissible_sequence,
    gm_distance,
    gm_length,
    segment_sign_sequence,
)
from .spectrum import (
    FREIMAN_CONSTANT,
    QForm,
    SpectrumElement,
    alpha_fixed_point,
    ell_periodic,
    enumerate_spectrum,
    lagrange_value,
    markov_sup_exact,
    markov_value,
    qform_of,
    transition_scan,
)
from .tables import reproduce_tables
from .verify import run_suite

__version__ = "0.1.0"
