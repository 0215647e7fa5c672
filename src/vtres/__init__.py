"""p-resistances, random-walk escape probabilities, growth functions, and
isoperimetric quantities on abelian Cayley graphs, with numerical
verification of the associated bound formulas."""

from .bounds import (
    BoundReport,
    CutsetFamily,
    bk_upper_bound,
    csc_bound,
    exponent_functions,
    j_quantity,
    loglog_slope,
    make_report,
    nash_williams_bound,
    sphere_cutsets,
    theorem_rhs,
)
from .energy import (
    FlowResult,
    Potential,
    annulus_resistances,
    box_ball_resistance,
    box_ball_separable,
    cayley_resistances,
    max_resistance,
    p_energy,
    p_laplacian,
    p_resistance,
    pair_resistance,
    solve_potential,
    sphere_resistances,
    stokes_check,
)
from .errors import VtresError
from .graphs import (
    INFINITE,
    BallGraph,
    CayleyGraph,
    Graph,
    GraphSpec,
    GrowthProfile,
    TerminalGraph,
    annulus_problem,
    boundary,
    build_ball,
    build_cayley_graph,
    collapse_terminals,
    dirichlet_problem,
    graph_growth_profile,
    growth_profile,
    orbit_ball,
    spec_cycle,
    spec_cyclic_chords,
    spec_explicit,
    spec_lattice,
    spec_line,
    spec_torus,
    spec_z_times_torus,
)
from .isoperimetry import (
    IsoProfile,
    check_iso_theorems,
    exact_profile,
    verify_csc,
    verify_cyclic_edge_iso,
)
from .manifest import ExperimentManifest, emit, emit_manifest, manifest_hash, parse_manifest, run
from .textspec import emit_graphspec, graphspec_hash, parse_graphspec
from .walks import (
    EscapeEstimate,
    escape_profile,
    escape_via_resistance,
    hit_before_return,
    simulate_escape,
)

__version__ = "0.1.0"
