"""Joint multi-echo MRI reconstruction from undersampled k-space.

Reconstructs a stack of echo images from partially sampled k-space lines by
coupling data consistency with learned patch models whose sparsity is shared
across echoes: a synthesis dictionary variant, a sparsifying transform
variant, and classic baselines (zero-filling, group-sparse wavelet CS,
entrywise-sparse dictionary learning).  Four engine functions serve the five
methods: ``reconstruct_dl`` runs both dictionary methods, ``dl_rowsparse`` and
``dl_sparse``, by its ``coef_prox``.

The package namespace holds what a user calls: the domain types and errors,
the forward operators, the four engines and ``run_method``, tuning, file I/O,
the phantom, the metrics and the shipped defaults.  The engines' internals
stay in their modules: the dictionary block steps in ``multiecho.dict_recon``,
the transform block steps in ``multiecho.transform_recon``, the solver
kernels (ISTA, the proximal maps, CG, power iteration) in
``multiecho.solvers``, the Haar transform in ``multiecho.baselines`` and
``lcurve_corner`` in ``multiecho.tuning``.
"""

from .core import (
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    ReconParams,
    SamplingMask,
)
from .operators import (
    ForwardModel,
    PatchScheme,
    apply_adjoint,
    apply_forward,
    fft2_unitary,
    generate_mask,
)
from .dict_recon import DlState, reconstruct_dl
from .transform_recon import TlState, reconstruct_tl
from .baselines import (
    CsState,
    reconstruct_cs_analysis,
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
from .tuning import lcurve_greedy
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
