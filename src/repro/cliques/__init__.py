"""Clique machinery: orientations, listing, counting, key encoding."""

from .approx import (CliqueEstimate, approximate_clique_count,
                     estimate_feasible_s)
from .counting import (edge_support, per_vertex_clique_counts,
                       total_clique_count, triangle_count)
from .encode import CliqueEncoder, KeyWidthError, min_levels
from .listing import collect_cliques, count_cliques, list_cliques, rec_list_cliques
from .orient import (arboricity_bounds, barenboim_elkin_order, degeneracy,
                     degeneracy_order, degree_order, goodrich_pszona_order,
                     identity_order, orientation_rank)

# ``orient`` the function is not re-exported: the name belongs to the
# submodule, so ``import repro.cliques.orient as m`` binds the module
# (call the function as ``repro.cliques.orient.orient``).
__all__ = [
    "orientation_rank", "degeneracy", "degeneracy_order",
    "goodrich_pszona_order", "barenboim_elkin_order", "degree_order",
    "identity_order",
    "arboricity_bounds",
    "list_cliques", "rec_list_cliques", "count_cliques", "collect_cliques",
    "total_clique_count", "per_vertex_clique_counts", "triangle_count",
    "edge_support",
    "CliqueEncoder", "KeyWidthError", "min_levels",
    "approximate_clique_count", "estimate_feasible_s", "CliqueEstimate",
]
