"""Lockstep pattern search against its sequential form, and the stacked
regret evaluation it rests on."""

import itertools

import numpy as np
import pytest
from _reference import train_regret_min_sequential

from ptodist import transfer
from ptodist.datagen import gen_grid, gen_inventory, gen_topk
from ptodist.transfer import PredictiveModel, mean_regret, mean_regrets, model_dim, train_regret_min

DATASETS = {
    "topk-K1": lambda: gen_topk(0.65, n_resources=8, n_instances=10, k=1, seed=3),
    "topk-K3": lambda: gen_topk(0.3, n_resources=8, n_instances=10, k=3, seed=4),
    "grid-p4-n4": lambda: gen_grid(1, 2, p=4, n_instances=6, neighborhood=4),
    "grid-p5-n8": lambda: gen_grid(3, 4, p=5, n_instances=6, neighborhood=8),
    "grid-p6-n4": lambda: gen_grid(5, 6, p=6, n_instances=6, neighborhood=4),
    "inventory-1": lambda: gen_inventory(1, 2, n_features=1, n_instances=12, seed=5),
    "inventory-3": lambda: gen_inventory(3, 4, n_features=3, n_instances=12, seed=6),
}

BUDGETS = (1, 4, 5, 7, 100, 600)
RESTARTS = (1, 3, 5)
SEEDS = (0, 1, 2)


@pytest.mark.parametrize("name", DATASETS)
def test_lockstep_training_matches_sequential_search(name, monkeypatch):
    ds = DATASETS[name]()
    rows = []
    batch = transfer.oracle_batch

    def counting_oracle(task, Y):
        rows.append(len(Y))
        return batch(task, Y)

    monkeypatch.setattr(transfer, "oracle_batch", counting_oracle)
    # every budget with every restart count, the seeds in a Latin square over both
    for (i, budget), (j, restarts) in itertools.product(enumerate(BUDGETS), enumerate(RESTARTS)):
        seed = SEEDS[(i + j) % len(SEEDS)]
        ref, n_evals = train_regret_min_sequential(ds.task, ds, budget=budget, restarts=restarts, seed=seed)
        rows.clear()
        got = train_regret_min(ds.task, ds, budget=budget, restarts=restarts, seed=seed)
        case = (name, budget, restarts, seed)
        assert got.theta.tobytes() == ref.theta.tobytes(), case
        # every candidate scored once, none speculatively
        assert sum(rows) == n_evals * len(ds), case


@pytest.mark.parametrize("name", DATASETS)
def test_mean_regrets_is_mean_regret_of_each_model(name):
    ds = DATASETS[name]()
    dim = model_dim(ds.task, ds.X.shape[1])
    rng = np.random.default_rng(11)
    for m in range(1, 8):
        thetas = rng.normal(0.0, 1.5, (m, dim))
        got = mean_regrets(ds.task, thetas, ds)
        assert got.shape == (m,)
        for theta, value in zip(thetas, got):
            assert value == mean_regret(ds.task, PredictiveModel("linear", theta), ds), (name, m)
