"""Cerebral microbleed segmentation/detection pipeline for SWI MRI.

Mask synthesis from point annotations, MRI augmentation, tri-planar
probability fusion, connected-component detection with clinical size
filtering, detection metrics, and group-level statistics — with the neural
segmenter abstracted behind a whole-view probability interface (per-slice
models plug in through an adapter) so the whole pipeline is verifiable on
synthetic phantoms.
"""

from .annotation import CMBAnnotation, partition_subjects, synthesize_mask
from .augment import AugmentSpec, apply_augmentation
from .detect import (
    Detections,
    ScanMetrics,
    aggregate_metrics,
    connected_components,
    evaluate_scan,
    filter_by_size,
    match_detections,
    scan_metrics,
)
from .phantom import PhantomSpec, generate_phantom, random_phantom_spec
from .scanio import ScanManifestEntry, read_manifest, read_volume, write_manifest, write_volume
from .segmenter import ExternalSegmenter, OracleSegmenter, ReferenceSegmenter
from .stats import compare_groups, fisher_exact_2x2, size_sweep, wilcoxon_signed_rank
from .triplanar import (
    SliceAdapter,
    SliceSegmenter,
    ThickSlice,
    ViewSegmenter,
    binarize_fused,
    fuse_views,
    predict,
    segment_volume,
)
from .volume import (
    LabelMask,
    ProbabilityVolume,
    Volume3D,
    VoxelIndex,
    WorldPoint,
    normalize_intensity,
    world_to_voxel,
)

__version__ = "0.1.0"
