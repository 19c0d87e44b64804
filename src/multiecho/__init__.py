"""Joint multi-echo MRI reconstruction from undersampled k-space.

Reconstructs a stack of echo images from partially sampled k-space lines by
coupling data consistency with learned patch models whose sparsity is shared
across echoes: a synthesis dictionary variant, a sparsifying transform
variant, and classic baselines (zero-filling, group-sparse wavelet CS,
entrywise-sparse dictionary learning).
"""

from .core import (
    DegenerateInputError,
    Dictionary,
    DomainError,
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    NumericalFailureError,
    ReconParams,
    SamplingMask,
    Transform,
)
from .operators import (
    ForwardModel,
    PatchScheme,
    apply_adjoint,
    apply_forward,
    fft2_unitary,
    generate_mask,
    ifft2_unitary,
)
from .solvers import (
    conjugate_gradient,
    ista_entrywise,
    ista_row_sparse,
    power_iteration,
    row_soft_threshold,
    soft_threshold,
)
from .dict_recon import (
    DlState,
    init_dictionary_svd,
    objective_dl,
    reconstruct_dl,
    update_coefs_P3,
    update_dictionary_P2,
    update_image_P1,
)
from .transform_recon import (
    TlState,
    init_transform_svd,
    objective_tl,
    reconstruct_tl,
    update_coefs_S3,
    update_image_S1,
    update_transform_S2,
)
from .baselines import (
    CsState,
    haar_dwt2,
    haar_idwt2,
    reconstruct_cs_analysis,
    reconstruct_dl_sparse,
    reconstruct_zero_filled,
)
from .phantom import (
    EllipseRegion,
    PhantomSpec,
    default_phantom_spec,
    generate_phantom,
    simulate_acquisition,
)
from .metrics import snr_db, snr_db_per_echo
from .tuning import lcurve_corner, lcurve_greedy
from .methods import run_method
from .defaults import EXPERIMENT, METHOD_NAMES, tuned_params
from .io import (
    FormatError,
    RunRecord,
    export_difference,
    export_pgm,
    load_kspace,
    load_mask,
    load_mef,
    load_run_record,
    save_kspace,
    save_mask,
    save_mef,
    save_run_record,
)

__version__ = "0.1.0"
