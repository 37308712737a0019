"""Decision-aware optimal-transport distances between predict-then-optimize
datasets, with tooling to study how those distances predict regret transfer
across distribution shifts."""

from .ot_core import (
    CostMatrix,
    Marginal,
    SinkhornResult,
    TransportPlan,
    solve_exact,
    solve_sinkhorn,
    transport_cost,
)
from .tasks import (
    InventoryParams,
    TaskDefinition,
    decision_quality,
    decision_regret,
    fstock,
    inventory_task,
    objective,
    objective_rows,
    oracle,
    oracle_batch,
    shortest_path_task,
    topk_task,
    validate_decision,
)
from .ground_cost import (
    CostBreakdown,
    GroundCostWeights,
    Sample,
    decision_aware_distance,
    decision_quality_disparity,
    pairwise_cost_matrix,
    pto_ground_cost,
)
from .datagen import (
    PtODataset,
    gen_grid,
    gen_inventory,
    gen_topk,
    read_dataset,
    write_dataset,
)
from .transfer import (
    BoundReport,
    PredictiveModel,
    TransferRecord,
    estimate_phi,
    evaluate_bound,
    mean_regret,
    predict_rows,
    regret_transferability,
    rsquared,
    train_regret_min,
    transfer_records,
    weight_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
