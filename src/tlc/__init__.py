"""Test-time local conversion of global feature-aggregation operators.

Global average pooling, instance/group normalization, channel attention
and channel-wise (transposed) attention all reduce over the entire
spatial extent of a feature map. This package converts them, at
inference time and without touching any parameters, into windowed local
operators with O(HW) cost, and ships the analysis tools that show why:
statistics pooled over full images are distributed differently from the
patch-level statistics the model saw during training.
"""

from .analysis import (
    Layer,
    LayerGraph,
    SampleLabel,
    SampleSet,
    calibrate_windows,
    histogram,
    ks_distance,
    run_shift_experiment,
    sample_pooled_stats,
)
from .fusion import (
    AttnParams,
    TilePlan,
    apply_and_fuse,
    plan_tiles,
    seam_metric,
    transposed_attention,
)
from .integral import (
    build_integral,
    local_aggregate,
    local_max,
    local_mean_var,
    strided_local_mean,
)
from .modules import (
    NormParams,
    SeParams,
    cbam_channel_forward,
    ge_forward,
    module_macs,
    norm_forward,
    se_forward,
)
from .tensor import (
    FeatureMap,
    MetricReport,
    WindowSpec,
    psnr,
    read_tensor,
    write_tensor,
)

__version__ = "0.1.0"
