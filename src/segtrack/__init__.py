"""segtrack: multi-animal tracking toolkit built on per-frame instance classification.

Each animal is its own detection class, so per-frame classification
doubles as identity assignment and tracks assemble without any
cross-frame association step.  The package covers dataset conversion
(labelme -> COCO), mask and polygon geometry, track assembly, CLEAR-MOT
and COCO-AP evaluation, behavior analytics, and a synthetic scenario
generator that serves as the evaluation oracle.
"""

from .errors import SegtrackError
from .geometry import (
    BoundingBox,
    MultiPolygon,
    Point,
    Polygon,
    RleMask,
    bbox_iou,
    mask_to_polygons,
    mask_to_rle,
    polygon_area,
    rasterize,
    rle_iou,
    rle_to_mask,
    segmentation_iou,
    segmentation_ious,
    simplify_polygon,
)
from .formats import (
    CocoDataset,
    LabelmeDocument,
    SplitResult,
    coco_to_tracks,
    keypoint_to_region,
    labelme_to_coco,
    parse_labelme,
    parse_predictions,
    read_coco,
    sample_frames,
    split_dataset,
    write_coco,
    write_predictions,
)
from .tracking import (
    Bout,
    DetectionRecord,
    SpotEvent,
    Track,
    TrackState,
    assemble_tracks,
    detect_novel_spots,
    filter_by_score,
    interpolate_gaps,
    segment_bouts,
)
from .metrics import (
    ApReport,
    ApRow,
    MotConfig,
    MotReport,
    evaluate_coco_ap,
    evaluate_mot,
    event_rates,
    hungarian,
    match_frame,
    mota,
)
from .analytics import (
    InteractionEvent,
    TrajectoryStats,
    ZoneDefinition,
    distance_traveled,
    emit_report,
    interaction_events,
    plot_trajectories,
    zone_occupancy,
)
from .synth import (
    InjectionLog,
    PerturbationConfig,
    ScenarioConfig,
    generate_scenario,
    perturb,
)

__version__ = "0.1.0"
