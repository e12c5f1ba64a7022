"""Exact computation of generalized Markov numbers and discrete spectra.

The package builds, entirely in exact arithmetic: solution trees of the
generalized Markov equation with number-position pairs and characteristic
numbers; the attached 2x2 matrices with their convergent-matrix
factorization; admissible sequences from sign rules on the triangulated
square lattice; snake-graph matching counts; lattice lengths and distances;
and the resulting spectrum values as canonical quadratic surds.

`import gmspec` loads no submodule.  A re-exported name, such as
`gmspec.cf_matrix`, imports its module on first access (PEP 562), and so
does a submodule, such as `gmspec.verify`.
"""

import importlib

# each re-exported name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("Mat2", "QuadSurd", "cf_matrix", "cf_eval_periodic", "periodic_cf_expansion"), "exact"
    ),
    **dict.fromkeys(("FareyTriple", "IrreducibleFraction"), "farey"),
    **dict.fromkeys((
        "ALTERNATING", "ALL_SIGMAS", "GMNode", "GMPair", "GMParams", "characteristic_number",
        "enumerate_tree", "format_sigma", "gm_check", "gm_node", "gm_pair", "parse_sigma",
    ), "gmtree"),
    **dict.fromkeys(("cohn_closed_form", "cohn_recursive", "d_matrix"), "cohn"),
    **dict.fromkeys((
        "SnakeGraph", "build_snake_graph", "continuant", "count_matchings_bruteforce",
        "rotation_tails",
    ), "snake"),
    **dict.fromkeys(
        ("admissible_sequence", "gm_distance", "gm_length", "segment_sign_sequence"), "lattice"
    ),
    **dict.fromkeys((
        "FREIMAN_CONSTANT", "QForm", "SpectrumElement", "alpha_fixed_point", "ell_periodic",
        "enumerate_spectrum", "lagrange_value", "markov_sup_exact", "markov_value", "qform_of",
        "transition_scan",
    ), "spectrum"),
    "reproduce_tables": "tables",
    "run_suite": "verify",
}

_SUBMODULES = (
    "cli", "cohn", "exact", "farey", "gmtree", "lattice", "snake", "spectrum", "tables", "verify",
)

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Not stored here: a name read again finds its module's current binding,
    # so a wrapper or monkeypatch put on the module, and its removal, show.
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:  # the import binds it here, as any submodule import does
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
