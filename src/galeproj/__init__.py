"""Exact rational toolkit for vertex counts of Minkowski sums.

The package chains four layers: exact linear algebra and LP feasibility
(`linalg`, `lp`), polytopes with normal-cone Minkowski enumeration
(`polytopes`), Gale duality and projection censuses (`gale`,
`projections`), and combinatorial embeddability obstructions
(`complexes`, `obstructions`).  The `pipeline` module ties them into
reproducible reports, also available from the `galeproj` CLI.
"""

from .complexes import (
    Complex,
    closure_from_facets,
    complement_complex,
    complete_bipartite,
    deleted_join,
    minimal_nonfaces,
    points_complex,
    power_join,
)
from .gale import (
    VectorConfig,
    gale_face_test,
    gale_faces_of_card,
    general_position,
    positively_dependent,
    positively_spanning,
)
from .linalg import kernel_basis, rank
from .lp import FeasibilityResult, LinConstraint, eq, le, lp_feasible, lt
from .obstructions import (
    Graph,
    ObstructionVerdict,
    chromatic_number,
    djn_dim_upper,
    kneser_graph,
    lovasz_kneser_chi,
    nonembeddable,
)
from .pipeline import (
    PipelineReport,
    minkowski_vertex_bound,
    obstruction_pipeline,
    pigeonhole_lower_bound,
    random_experiment,
    two_triangle_example,
)
from .polytopes import (
    FaceRecord,
    HPolytope,
    VPolytope,
    dual_generators,
    h_vertices,
    is_simple,
    minkowski_sum_vertices,
    minkowski_vertex_test,
    product,
    recentre,
    sum_as_projection,
    trivial_upper_bound,
)
from .projections import (
    ProjectionSetup,
    SurvivalReport,
    face_preserved,
    face_strictly_preserved,
    make_setup,
    oracle_survival,
    verify_cc_realized,
    vertex_survival_census,
)

__version__ = "0.1.0"
