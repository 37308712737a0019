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
from ptodist import Marginal, TransportPlan, datagen, transfer  # noqa: E402

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
