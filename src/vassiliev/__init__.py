"""Low-degree knot invariants computed from Gauss codes.

The package parses Gauss codes, derives arrow and chord diagrams,
evaluates the degree-2 and degree-3 invariants by independent methods
(coordinate sums and diagram-pattern counts), builds the associated
weight systems, and checks basis expansion identities.
"""

from .codes import (
    Diagnostic,
    DoublePointPassage,
    GaussCode,
    KnotRecord,
    Passage,
    SingularCode,
    apply_r1,
    apply_r2,
    bundled_knot_table,
    embedding_genus,
    format_code,
    is_realizable,
    list_r2_insertions,
    load_knot_table,
    mirror,
    parse_gauss_code,
    parse_knot_table,
    parse_singular_code,
    random_perturbations,
    reverse_orientation,
    rotate_basepoint,
    validate,
)
from .coordinates import CrossingCoordinates, coordinate_table, delta, epsilon
from .diagrams import (
    Arrow,
    ArrowDiagram,
    ChordDiagram,
    Pattern,
    PatternExpression,
    PatternTerm,
    arrow_diagram_from_code,
    chord_diagram,
    chord_subdiagram,
    count_matches,
    double_point_diagram,
    evaluate_expression,
    interleaved,
    load_pattern_file,
    parse_pattern,
    parse_pattern_file,
)
from .errors import VassilievError
from .expansion import (
    Expansion,
    ExpansionTerm,
    bundled_expansion,
    check_expansion,
    load_expansion,
    parse_expansion,
    solve_basis_values,
)
from .invariants import (
    INVARIANTS,
    InvariantReport,
    invariant_report,
    methods,
    v2,
    v2_lannes,
    v2_polyak_viro,
    v3,
    v3_lannes,
    v3_polyak_viro,
    v3_theorem,
)
from .weights import (
    WeightSystem,
    check_relations,
    enumerate_chord_diagrams,
    four_term_quadruples,
    realize_chord_diagram,
    resolve_singular,
    w2,
    w3,
    weight_from_invariant,
    weight_system_from_function,
)

__version__ = "0.1.0"
