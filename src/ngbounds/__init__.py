"""Nordhaus-Gaddum clique/independent-set quantities and their machinery.

Exact counting of cliques and independent sets (all sizes), the
compression operator driving any graph to a threshold graph without
shrinking the product quantities, threshold graphs stored as lattice walks
with their closed-form counts, the lattice-path/border analysis behind the
fixed-size product bound, multicolor families with good-sequence
certificates and the tournament construction, plus brute-force oracles and
seeded samplers to verify all of it at desk scale.
"""

from .compression import (
    compress,
    compress_to_threshold,
)
from .counting import (
    clique_profile,
    count_cliques,
    count_independent_sets,
    independent_profile,
    pi,
    pi_t,
    profile_pair,
    sigma,
    sigma_t,
)
from .graphs import (
    Graph,
    Graph6Error,
    emit_graph6,
    parse_graph6,
)
from .multicolor import (
    ColoringFormatError,
    GraphFamily,
    Tournament,
    certificate_length,
    certificate_lower_bound,
    construction_value,
    count_covering_tuples,
    count_good_sequences,
    emit_coloring,
    good_sequence_certificate,
    is_good_sequence,
    multicolor_upper_bound,
    parse_coloring,
    pigeonhole_sequence,
    product_clique_counts,
    sum_clique_counts,
    tournament_blocks,
    tournament_construction,
)
from .oracle import (
    ExtremalRecord,
    exhaustive_coloring_extremal,
    exhaustive_extremal,
    merge_records,
    random_pi_exponent,
    random_tournament,
    rng_for,
    sample_random_coloring,
    sample_random_graph,
)
from .packing import (
    BorderPath,
    discrete_border_max,
    leading_term_bound,
    one_turn_value,
)
from .threshold import (
    build,
    closed_form_counts,
    extremal_one_turn_codes,
    recognize,
)

__version__ = "0.1.0"
