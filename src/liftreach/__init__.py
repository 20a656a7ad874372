"""liftreach: lifts of control systems across submersions, with grid-certified
reachability and controllability transfer."""

from .errors import (
    DimensionMismatch,
    Escape,
    FrameNotKernel,
    IndependenceViolated,
    LiftReachError,
    NotAdapted,
    NotInKernel,
    NotSubmersion,
    OutOfAtlas,
    ParseError,
    RankDeficient,
    SingularGram,
    UnmappedControl,
    UnresolvedReference,
)
from .geometry import (
    Atlas,
    Chart,
    Point,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    combine_fields,
    differential_rank,
    interval_atlas,
    mobius_atlas,
    torus_atlas,
    union_atlas,
)
from .morphisms import (
    KernelFrame,
    Morphism,
    augment_with_kernel,
    check_liftable,
    kernel_frame,
    kernel_projector,
    lift_system,
    morphism_from_lifting,
    verify_global_in_time,
    verify_trajectory_preserving,
)
from .reach import Grid, ReachReport, is_reachability_set, reach, stlc_probe
from .runner import RunResult, run
from .scenario import Scenario, load_builtin, parse_scenario
from .second_order import (
    ConnectionSystem,
    SecondOrderSystem,
    TangentAtlas,
    augment_second_order,
    geodesic_spray,
    is_second_order,
    second_order_lift,
    second_order_system,
    tangent_atlas,
    vertical_lift,
)
from .systems import (
    ControlSystem,
    GeneratedSystem,
    RowRequest,
    Schedule,
    Trajectory,
    control_system_from_tcs,
    integrate,
    integrate_requests,
    tcs_from_control_system,
)

__version__ = "0.1.0"
