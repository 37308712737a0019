"""Tests for the synthetic dataset generators and file round-trip I/O."""

import numpy as np
import pytest

from _reference import class_maps_one_at_a_time, generated_rows
from ptodist.datagen import (
    _class_maps,
    DatasetFormatError,
    PtODataset,
    gen_grid,
    gen_inventory,
    gen_topk,
    read_dataset,
    score_probs,
    write_dataset,
)
from ptodist.tasks import feasible_rows, objective_rows, oracle_batch, topk_task


def datasets_equal(a, b):
    if a.task != b.task or a.provenance != b.provenance or len(a) != len(b):
        return False
    for sa, sb in zip(a.samples, b.samples):
        if not (
            np.array_equal(sa.x, sb.x)
            and np.array_equal(sa.y, sb.y)
            and np.array_equal(sa.z, sb.z)
        ):
            return False
    return True


def test_dataset_validation():
    t = topk_task(2, 1)
    x, y, z = np.zeros((1, 2)), np.zeros((1, 2)), np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="at least one sample"):
        PtODataset(task=t, X=x[:0], Y=y[:0], Z=z[:0], provenance={"generator": "test"})
    with pytest.raises(ValueError, match="provenance"):
        PtODataset(task=t, X=x, Y=y, Z=z, provenance={})
    bad = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError, match="infeasible"):
        PtODataset(task=t, X=np.zeros((2, 2)), Y=np.zeros((2, 2)), Z=np.vstack([z, bad]),
                   provenance={"generator": "test"})
    for empty in (lambda: gen_topk(0.0, n_instances=0), lambda: gen_grid(1, 2, p=3, n_instances=0),
                  lambda: gen_inventory(1, 2, n_instances=0)):
        with pytest.raises(ValueError, match="at least one sample"):
            empty()


def test_dataset_rejects_nonfinite_values_and_bad_labels():
    t = topk_task(3, 1)
    X, Y = np.zeros((2, 3)), np.ones((2, 3))
    Z = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    prov = {"generator": "test"}
    for name, row in (("X", 1), ("Y", 0), ("Z", 1)):
        for bad in (np.nan, np.inf):
            arrays = {"X": X.copy(), "Y": Y.copy(), "Z": Z.copy()}
            arrays[name][row, 2] = bad
            with pytest.raises(ValueError, match=f"sample {row} has a non-finite value"):
                PtODataset(task=t, provenance=prov, **arrays)
    with pytest.raises(ValueError, match="sample 0 has 2 labels, the task takes 3"):
        PtODataset(task=t, X=X, Y=Y[:, :2], Z=Z, provenance=prov)
    inv = gen_inventory(1, 2, n_instances=3, seed=0)
    for bad in ([0.9] * 5, [1.5, -0.5, 0.0, 0.0, 0.0]):
        Yb = inv.Y.copy()
        Yb[2] = bad
        with pytest.raises(ValueError, match="sample 2 labels are not a probability vector"):
            PtODataset(task=inv.task, X=inv.X, Y=Yb, Z=inv.Z, provenance=prov)


def test_dataset_arrays_are_read_only_copies_and_samples_view_them():
    ds = gen_topk(0.3, n_resources=4, n_instances=3, seed=2)
    X = ds.X.copy()
    copy = PtODataset(task=ds.task, X=X, Y=ds.Y, Z=ds.Z, provenance=ds.provenance)
    X[0, 0] = 5.0
    assert copy.X[0, 0] != 5.0
    for name in ("X", "Y", "Z"):
        assert not getattr(copy, name).flags.writeable
    assert len(copy) == len(copy.samples) == 3
    for i, s in enumerate(copy.samples):
        assert np.shares_memory(s.x, copy.X) and np.array_equal(s.x, copy.X[i])
        assert np.array_equal(s.y, copy.Y[i]) and np.array_equal(s.z, copy.Z[i])
        with pytest.raises(ValueError):
            s.y[0] = 1.0


@pytest.mark.parametrize("make", [
    lambda: gen_topk(0.3, n_resources=5, n_instances=4, seed=2),
    lambda: gen_grid(1, 2, p=4, n_instances=3),
    lambda: gen_inventory(1, 2, n_instances=4, seed=3),
])
def test_optimal_decisions_are_the_oracles_and_read_only(make):
    ds = make()
    Z, q = ds.optimal_decisions(), ds.optimal_quality()
    assert Z.tobytes() == oracle_batch(ds.task, ds.Y).tobytes()
    assert q.tobytes() == objective_rows(ds.task, oracle_batch(ds.task, ds.Y), ds.Y).tobytes()
    assert ds.optimal_decisions() is Z and ds.optimal_quality() is q  # computed once, kept
    for v in (Z, q):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0


def test_generators_match_per_instance_draws():
    cases = [
        (gen_topk(0.65, n_resources=25, n_instances=30, seed=4),
         generated_rows("topk", 30, gamma=0.65, n_resources=25, seed=4)),
    ]
    for p, n_classes in ((12, 5), (5, 1), (7, 3)):
        kw = dict(class_cost_seed=3, map_seed=8, p=p, n_classes=n_classes)
        cases.append((gen_grid(n_instances=20, **kw), generated_rows("grid", 20, **kw)))
    for n_features in (1, 3, 5):
        kw = dict(mean_shift_seed=1, theta_seed=2, n_features=n_features, seed=4)
        cases.append((gen_inventory(n_instances=30, **kw), generated_rows("inventory", 30, **kw)))
    for ds, (X, Y) in cases:
        # bit for bit: the batched draws and arithmetic are the per-instance ones
        assert np.array_equal(ds.X, X) and np.array_equal(ds.Y, Y)
        assert np.array_equal(ds.Z, np.stack([oracle_batch(ds.task, y[None])[0] for y in Y]))


@pytest.mark.parametrize("p", [2, 3, 6, 12, 20])
@pytest.mark.parametrize("n_classes", [1, 2, 5, 9])
def test_class_maps_are_the_per_instance_maps(p, n_classes):
    for n in (0, 1, 3, 20):
        rng, ref_rng = np.random.default_rng(p * 100 + n_classes), np.random.default_rng(p * 100 + n_classes)
        maps, ref = _class_maps(rng, p, n_classes, n), class_maps_one_at_a_time(ref_rng, p, n_classes, n)
        # bit for bit, in dtype, and leaving the generator where n one-at-a-time maps leave it
        assert maps.dtype == ref.dtype and maps.shape == (n, p, p)
        assert np.array_equal(maps, ref)
        assert rng.normal() == ref_rng.normal()


def test_gen_topk_labeling_and_sorting():
    for gamma in (0.0, 0.65, 1.2):
        ds = gen_topk(gamma, n_resources=10, n_instances=5, seed=3)
        for s in ds.samples:
            assert np.all(np.diff(s.x) >= 0.0)  # sorted features
            assert np.allclose(s.y, 10.0 * (s.x**3 - gamma * s.x))
            assert np.array_equal(s.z, oracle_batch(ds.task, s.y[None])[0])
    # spot values of the labeling polynomial itself
    assert abs(10.0 * (0.5**3 - 0.0 * 0.5) - 1.25) < 1e-12
    assert 10.0 * (0.0**3 - 0.65 * 0.0) == 0.0
    assert abs(10.0 * (1.0**3 - 1.2 * 1.0) - (-2.0)) < 1e-12


def test_gen_topk_determinism():
    a = gen_topk(0.3, n_instances=4, seed=9)
    b = gen_topk(0.3, n_instances=4, seed=9)
    c = gen_topk(0.3, n_instances=4, seed=10)
    assert datasets_equal(a, b)
    assert not datasets_equal(a, c)


def test_gen_topk_scale_stable_across_seeds():
    # mean |y| is a property of gamma, not the seed
    means = np.array(
        [np.mean([np.abs(s.y).mean() for s in gen_topk(0.5, n_instances=10, seed=s).samples])
         for s in range(50)]
    )
    assert np.all(np.abs(means - means.mean()) <= 3.0 * means.std(ddof=1))


def test_gen_topk_rejects_bad_k():
    with pytest.raises(ValueError):
        gen_topk(0.0, n_resources=3, k=4)


def test_gen_grid_structure():
    ds = gen_grid(class_cost_seed=1, map_seed=2, p=6, n_classes=4, n_instances=5)
    for s in ds.samples:
        assert s.x.size == 36 and s.y.size == 36
        assert s.x.min() >= 0.0 and s.x.max() <= 1.0
        assert s.y.min() >= 0.8 and s.y.max() <= 9.2
        assert feasible_rows(ds.task, s.z[None])[0]
        # per-cell costs constant within a class
        classes = np.round(s.x * 3).astype(int)
        for c in np.unique(classes):
            assert np.unique(s.y[classes == c]).size == 1
    with pytest.raises(ValueError, match="grid side"):  # the task is checked before the classes
        gen_grid(1, 2, p=1, n_classes=0)


def test_gen_grid_target_shift_shares_features():
    a = gen_grid(class_cost_seed=1, map_seed=5, p=5, n_instances=4)
    b = gen_grid(class_cost_seed=2, map_seed=5, p=5, n_instances=4)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.x, sb.x)
    assert any(not np.array_equal(sa.y, sb.y) for sa, sb in zip(a.samples, b.samples))


def test_gen_grid_single_class_uniform_field():
    ds = gen_grid(class_cost_seed=3, map_seed=4, p=4, n_classes=1, n_instances=2)
    for s in ds.samples:
        assert np.unique(s.y).size == 1
        # all monotone shortest paths tie; the oracle is still deterministic
        assert np.array_equal(s.z, oracle_batch(ds.task, s.y[None])[0])


def test_gen_grid_decisions_are_oracle_optimal():
    ds = gen_grid(class_cost_seed=7, map_seed=8, p=4, n_instances=5)
    for s in ds.samples:
        best = objective_rows(ds.task, oracle_batch(ds.task, s.y[None])[0], s.y)
        assert abs(objective_rows(ds.task, s.z, s.y) - best) < 1e-9


def test_score_probs_example():
    p = score_probs(np.array([0.0, 1.0]))
    e = np.e
    assert np.allclose(p, [1.0 / (1.0 + e), e / (1.0 + e)])
    assert np.allclose(score_probs(np.zeros(4)), 0.25)


def test_gen_inventory_structure():
    ds = gen_inventory(mean_shift_seed=0, theta_seed=0, n_instances=6)
    for s in ds.samples:
        assert abs(s.y.sum() - 1.0) < 1e-12
        assert np.all(s.y >= 0.0)
        assert s.z.size == 1 and s.z[0] >= 0.0
        assert np.array_equal(s.z, oracle_batch(ds.task, s.y[None])[0])


def test_gen_inventory_shift_keeps_mechanism():
    a = gen_inventory(mean_shift_seed=0, theta_seed=5, n_instances=5)
    b = gen_inventory(mean_shift_seed=1, theta_seed=5, n_instances=5)
    assert a.task == b.task
    assert a.provenance != b.provenance
    # identical features would imply identical probabilities under the shared theta
    assert any(not np.array_equal(sa.x, sb.x) for sa, sb in zip(a.samples, b.samples))


# each generator, with the label domain of its task
GENERATED = {
    "topk": (lambda: gen_topk(0.5, n_resources=7, n_instances=4, k=2, seed=1), "real"),
    "grid-4": (lambda: gen_grid(1, 2, p=4, n_instances=3, neighborhood=4), "nonnegative"),
    "grid-8": (lambda: gen_grid(3, 4, p=5, n_instances=3, length_weight=0.5), "nonnegative"),
    "inventory": (lambda: gen_inventory(1, 2, n_features=2, n_instances=5, seed=3, demand_values=(1, 4, 9)),
                  "simplex"),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_labels_have_the_task_width_and_domain(name, tmp_path):
    make, domain = GENERATED[name]
    ds = make()
    assert ds.task.label_domain == domain
    assert ds.Y.shape[1] == ds.task.label_dim
    assert np.isfinite(ds.Y).all()
    if domain != "real":
        assert (ds.Y >= 0.0).all()
    if domain == "simplex":
        assert np.allclose(ds.Y.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    write_dataset(ds, tmp_path / "ds.plds")
    assert read_dataset(tmp_path / "ds.plds").task == ds.task


def test_round_trip_bit_exact(tmp_path):
    datasets = [
        gen_topk(0.65, n_instances=5, seed=1),
        gen_grid(class_cost_seed=1, map_seed=2, p=5, n_instances=4),
        gen_inventory(mean_shift_seed=3, theta_seed=4, n_instances=5),
    ]
    for i, ds in enumerate(datasets):
        path = tmp_path / f"ds{i}.plds"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert datasets_equal(ds, back)
        # a second write of the re-read dataset is byte-identical
        path2 = tmp_path / f"ds{i}b.plds"
        write_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_read_errors_name_line_and_field(tmp_path):
    ds = gen_topk(0.0, n_resources=3, n_instances=2, seed=0)
    path = tmp_path / "ds.plds"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()

    import json

    rec = json.loads(lines[1])
    del rec["z"]
    (tmp_path / "missing.plds").write_text("\n".join([lines[0], json.dumps(rec), lines[2]]) + "\n")
    with pytest.raises(DatasetFormatError, match=r"line 2.*'z'"):
        read_dataset(tmp_path / "missing.plds")

    (tmp_path / "empty.plds").write_text("")
    with pytest.raises(DatasetFormatError, match="empty file"):
        read_dataset(tmp_path / "empty.plds")

    (tmp_path / "headeronly.plds").write_text(lines[0] + "\n")
    with pytest.raises(DatasetFormatError, match="at least one sample"):
        read_dataset(tmp_path / "headeronly.plds")

    (tmp_path / "badjson.plds").write_text(lines[0] + "\n{not json\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset(tmp_path / "badjson.plds")

    header = json.loads(lines[0])
    del header["task"]["params"]["k"]
    (tmp_path / "nok.plds").write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(DatasetFormatError, match=r"nok\.plds: line 1: task params missing 'k'"):
        read_dataset(tmp_path / "nok.plds")

    inv_path = tmp_path / "inv.plds"
    write_dataset(gen_inventory(1, 2, n_instances=2, seed=0), inv_path)
    inv_lines = inv_path.read_text().splitlines()
    header = json.loads(inv_lines[0])
    header["task"]["params"]["inventory_params"]["c9"] = 1.0
    (tmp_path / "c9.plds").write_text("\n".join([json.dumps(header)] + inv_lines[1:]) + "\n")
    with pytest.raises(DatasetFormatError, match=r"c9\.plds: line 1: unknown inventory param 'c9'"):
        read_dataset(tmp_path / "c9.plds")


def test_read_errors_for_values_and_json_types_name_the_line(tmp_path):
    import json

    path = tmp_path / "inv.plds"
    write_dataset(gen_inventory(1, 2, n_instances=3, seed=0), path)
    lines = path.read_text().splitlines()

    def read_with(lineno, text, match):
        bad = tmp_path / "bad.plds"
        bad.write_text("\n".join(lines[: lineno - 1] + [text] + lines[lineno:]) + "\n")
        with pytest.raises(DatasetFormatError, match=match):
            read_dataset(bad)

    header = json.loads(lines[0])
    rec = json.loads(lines[2])
    read_with(1, "5", r"line 1: header must be a JSON object")
    read_with(1, json.dumps({**header, "task": [1]}), r"line 1: header field 'task' must be an object")
    read_with(1, json.dumps({**header, "provenance": {}}), r"line 1: .*'provenance' must be a nonempty")
    params = header["task"]["params"]
    for bad_params, match in (
        (5, "task params must be an object"),
        ({**params, "demand_values": [5.0, "x"]}, "task param 'demand_values' must be a list"),
        ({**params, "demand_values": [5.0, 5.0]}, "demand values must be strictly increasing"),
        ({**params, "inventory_params": {"c0": float("nan")}}, "task param 'inventory_params' must be"),
    ):
        read_with(1, json.dumps({**header, "task": {"kind": "inventory", "params": bad_params}}),
                  f"line 1: {match}")
    read_with(3, "[1.0]", r"line 3: sample record must be a JSON object")
    read_with(3, json.dumps({**rec, "x": [float("nan")]}), r"line 3: sample has a non-finite value")
    read_with(3, json.dumps({**rec, "x": rec["x"] + [0.5]}), r"line 3: field 'x' has 2 values, line 2 has 1")
    read_with(3, json.dumps({**rec, "y": [0.9] * 5}), r"line 3: sample labels are not a probability vector")
    read_with(4, json.dumps({**rec, "z": [-1.0]}), r"line 4: sample carries an infeasible decision")
    topk = tmp_path / "topk.plds"
    write_dataset(gen_topk(0.0, n_resources=3, n_instances=2, seed=0), topk)
    t_header, t_rec = (json.loads(v) for v in topk.read_text().splitlines()[:2])
    for key, value in (("k", 1.5), ("k", True), ("n_resources", "3")):
        t_header["task"]["params"] = {"n_resources": 3, "k": 1, key: value}
        topk.write_text("\n".join([json.dumps(t_header), json.dumps(t_rec)]) + "\n")
        with pytest.raises(DatasetFormatError, match=f"line 1: task param '{key}' must be an integer"):
            read_dataset(topk)
