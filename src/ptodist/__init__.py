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
    feasible_rows,
    fstock,
    inventory_task,
    objective_rows,
    oracle_batch,
    shortest_path_task,
    topk_task,
)
from .ground_cost import (
    GroundCostWeights,
    decision_aware_distance,
    pairwise_cost_matrix,
)
from .datagen import (
    PtODataset,
    Sample,
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
    evaluate_bound,
    mean_regret,
    predict_rows,
    rsquared,
    train_regret_min,
    transfer_records,
    weight_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
