"""tofdefog: scattering removal and depth recovery for CW-ToF images in fog."""

from .core import (
    AMPLITUDE_EPSILON,
    SPEED_OF_LIGHT_MM_S,
    CameraModel,
    DepthImage,
    ObjectMask,
    PhasorImage,
    ScatteringField,
    depth_to_phase,
    phase_to_depth,
    phasor_add,
    phasor_subtract,
    wrap_phase,
)
from .forward import (
    CalibrationSet,
    MeasuredScattering,
    MediumParams,
    ScatterProfile,
    SceneSpec,
    SynthesisResult,
    direct_phasor,
    estimate_beta,
    hg_phase,
    scattering_phasor,
    synthesize,
)
from .irls import (
    PROFILES,
    IrlsState,
    SolverConfig,
    SolverError,
    binarize_weights,
    estimate_scattering,
    mad_scale,
    run_coarse,
    run_fine,
    solve_wls,
    tukey_rho,
    tukey_weight,
)
from .pipeline import DefogResult, defog, load_scene, save_scene
from .priors import (
    FlipOperator,
    PatchGrid,
    SingularFitError,
    gradient_penalty,
    symmetry_penalty,
)
from .recon import (
    DepthErrorReport,
    evaluate,
    fuse_masks,
    mask_iou,
    reconstruct_depth,
    recover_direct,
    report_table_csv,
)
from .simrange import RangeSweep, find_range, sweep

__version__ = "0.1.0"
