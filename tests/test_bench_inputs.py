"""What the benchmark under ``bench/`` reads of ``ptodist``, checked from the
test suite: a change to the package that would break the benchmark's
operations or its reference checks fails here."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ptodist  # noqa: E402
from ptodist import Marginal, TransportPlan, datagen, ground_cost, transfer  # noqa: E402
from ptodist.tasks import objective_rows, oracle_batch  # noqa: E402

FAMILIES = {
    "topk": lambda: datagen.gen_topk(0.5, n_resources=5, n_instances=4, seed=1),
    "grid": lambda: datagen.gen_grid(1, 2, p=4, n_instances=3),
    "inventory": lambda: datagen.gen_inventory(1, 2, n_features=2, n_instances=5, seed=3),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_checks_read_the_rows_of_each_family(family):
    ds = FAMILIES[family]()
    for got, want in zip(checks.arrays(ds), (ds.X, ds.Y, ds.Z)):
        assert np.array_equal(got, want)


# a pair of datasets of one task per family; the grid pair adds a length weight
PAIRS = {
    "topk": lambda: (FAMILIES["topk"](), datagen.gen_topk(1.2, n_resources=5, n_instances=3, seed=2)),
    "grid": lambda: (datagen.gen_grid(1, 2, p=4, n_instances=3, length_weight=0.5),
                     datagen.gen_grid(3, 2, p=4, n_instances=4, length_weight=0.5)),
    "inventory": lambda: (FAMILIES["inventory"](),
                          datagen.gen_inventory(4, 2, n_features=2, n_instances=6, seed=5)),
}


def agree(got, want):
    """Same shape, and each value within the bench's own tolerance of the package's."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and all(map(checks.close, got.ravel().tolist(), want.ravel().tolist()))


@pytest.mark.parametrize("family", sorted(PAIRS))
def test_checks_task_formulas_agree_with_the_package(family):
    # the bench's reference ground costs read task.kind and task.params
    a, b = PAIRS[family]()
    task = a.task
    want = [objective_rows(task, np.tile(z, (len(b), 1)), b.Y) for z in a.Z]
    assert agree(checks.objective_matrix(task, a.Z, b.Y), want)
    for mode in ("as-written", "symmetrized"):
        got = checks.cost_components(task, checks.arrays(a), checks.arrays(b), mode)
        for term, (g, w) in zip("FLW", zip(got, ground_cost.component_matrices(a, b, mode))):
            assert agree(g, w), (mode, term)


@pytest.mark.parametrize("family", ["inventory", "topk"])
def test_checks_oracles_predictions_and_zero_model_agree_with_the_package(family):
    # the bench's regret checks serve top-K and inventory; its predictions do not clip grid costs
    ds = FAMILIES[family]()
    task, dim = ds.task, transfer.model_dim(ds.task, ds.X.shape[1])
    assert agree(checks.oracle_decisions(task, ds.Y), oracle_batch(task, ds.Y))
    theta = np.random.default_rng(0).normal(size=dim)
    assert agree(checks.predictions(task, theta, ds.X), transfer.predict_rows(task, theta, ds.X))
    zero = transfer.PredictiveModel("linear", np.zeros(dim))
    assert checks.regret_close(checks.zero_model_regret(task, ds.X, ds.Y), transfer.mean_regret(task, zero, ds))


def test_transport_plan_skips_its_marginal_check_on_request():
    a = Marginal.uniform(2)
    skewed = np.array([[0.5, 0.1], [0.0, 0.5]])
    assert TransportPlan(skewed, a, a, validate=False).matrix.sum() == pytest.approx(1.1)
    with pytest.raises(ValueError, match="marginals violated"):
        TransportPlan(skewed, a, a)


def test_tracer_names_training_runs_by_restarts():
    ds = FAMILIES["topk"]()
    tracer = tracing.Tracer(ptodist)
    tracer.install()
    try:
        transfer.train_regret_min(ds.task, ds, budget=20, restarts=5, seed=0)
    finally:
        tracer.uninstall()
    assert [key[1:] for key in tracer.training_keys] == [(20, 5, 0)]
    assert tracer.calls("transfer.train_regret_min") == 1


def test_bound_workload_round_passes_its_checks(tmp_path):
    workload = workloads.build("bound", 4242, str(tmp_path))
    outputs = {}
    for op in workload.ops:
        out = op.collect(op.run())
        assert not op.failed(out), op.name
        outputs[op.name] = out
    assert workload.check(outputs) == []
