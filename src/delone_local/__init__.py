"""Local theory of regular systems for 3D Delone sets.

Cluster extraction, cluster equivalence, point-group identification
(Schoenflies), regularity criteria (local criterion, tower bound, rotation
step bound, per-group bounds table), stock point-set generators, and the
antiprism optimization problems.
"""
from .antiprism_opt import (
    Lemma1Params,
    Lemma2Params,
    OptBudget,
    OptimizationReport,
    lemma1_objective,
    lemma2_objective,
    optimize_lemma1,
    optimize_lemma2,
    p_y_vertices,
)
from .delone_core import (
    Cluster,
    PointPatch,
    cluster,
    covering_radius,
    load_patch,
    packing_diameter,
    save_patch,
    shell,
)
from .equivalence import (
    ClusterClassDecomposition,
    cluster_classes,
    cluster_isometry,
)
from .generators import (
    BiLatticeSpec,
    HexLatticeSpec,
    antiprism_patch,
    antiprism_points,
    c4v_example,
    cubic_lattice,
    hex_bilattice,
    hex_lattice,
)
from .geometry import (
    ElementKind,
    Isometry,
    classify_element,
)
from .point_group import (
    PointGroup,
    SchoenfliesLabel,
    group_from_generators,
    omega,
    stabilizer,
    tower_height,
)
from .regularity import (
    BoundTableRow,
    CriterionVerdict,
    bound_lookup,
    classify_scenario,
    local_criterion,
    shtogrin_step_bound,
    table_rows,
    tower_bound_radius,
)

__version__ = "0.1.0"
