"""Bloch-decomposition and time-splitting spectral solvers for the 1D
semiclassical Schrodinger equation with a periodic lattice potential."""

from .bands import (
    BandTable,
    ChiInterpolator,
    assemble_hk,
    berry_connection,
    eval_band,
    eval_band_deriv,
    eval_chi,
    fold_k,
    solve_bands,
)
from .grid import (
    CellField,
    SimulationGrid,
    WaveField,
    build_grid,
    discrete_norms,
    sample_gaussian,
)
from .potential import (
    ExternalPotential,
    PeriodicPotential,
    external_from_spec,
    from_samples,
    kronig_penney,
    lattice_from_spec,
    mathieu,
)
from .steppers import (
    BDPropagator,
    StepperConfig,
    TSPropagator,
    bd_periodic_flow,
    evolve,
    external_phase,
    step,
)
from .wkb import (
    AmplitudeTrajectory,
    CausticReport,
    PhaseTrajectory,
    WkbComparison,
    build_wkb_initial,
    hj_solve,
    reconstruct_sc,
    transport_solve,
    wkb_compare,
    wkb_pipeline,
)
from .transform import (
    BlochCoeffs,
    BlochTransform,
    band_masses,
    band_project,
    band_reconstruct,
    cell_forward,
    cell_inverse,
)

__version__ = "0.1.0"
