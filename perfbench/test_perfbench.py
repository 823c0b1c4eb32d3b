"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, output
checks, and a minimal-length run of every workload."""

import copy

import pytest

import run
import tracing
import workloads


def test_self_time_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("leaf", 5.0, 7.0, 3),
        ("leaf", 6.0, 8.0, 3),  # overlaps its sibling: covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])
    totals = tracing.fold(spans)
    assert totals["leaf"] == pytest.approx([3, 5.0, 5.0])
    assert totals["root"] == pytest.approx([1, 10.0, 3.0])


def test_self_time_clips_children_to_parent():
    spans = [("p", 0.0, 2.0, -1), ("c", 1.5, 3.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([1.5, 1.5])


@pytest.fixture(scope="module")
def modules():
    return run.engine_modules()


def test_tracer_restores_every_attribute(modules):
    def current():
        return [
            tracing._resolve(modules, m, c).__dict__[a] for m, c, a, _ in tracing.TARGETS
        ]

    before = current()
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert len(tracing.installed(modules)) == len(tracing.TARGETS)
        with pytest.raises(ValueError):
            modules["clusterattn"].cluster(None, 0)  # wrapped call raising
    finally:
        tracer.uninstall()
    assert tracing.installed(modules) == []
    assert all(a is b for a, b in zip(current(), before))
    (span,) = tracer.take().items()
    assert span[0] == "clusterattn.cluster" and span[1][0] == 1


def test_compare_metrics_exact_and_tolerant():
    want = {"flops_mean": 10.0, "miou": 0.5, "per_class_iou": [0.1, 0.2], "boundary_token_auc": None}
    assert workloads.compare_metrics(copy.deepcopy(want), want) is None
    near = dict(want, miou=0.5 + 1e-12)
    assert workloads.compare_metrics(near, want) is None
    assert "miou" in workloads.compare_metrics(dict(want, miou=0.5 + 1e-6), want)
    assert "flops_mean" in workloads.compare_metrics(dict(want, flops_mean=10.0 + 1e-12), want)
    assert "per_class_iou" in workloads.compare_metrics(dict(want, per_class_iou=[0.1]), want)


def test_nano_eval_check_flags_a_wrong_reference():
    w = workloads.NanoEval()
    state = w.setup(0)
    ops, manifest = w.run(state, 3)
    assert state["ref"] is not None
    w.check(state, 3, ops, manifest)
    assert ops[0].error is None
    bad = copy.deepcopy(state["ref"])
    bad["metrics"][3]["pixel_acc"] += 1e-6
    state["ref"] = bad
    w.check(state, 3, ops, manifest)
    assert "pixel_acc" in ops[0].error


@pytest.mark.parametrize("name", ["nano-eval", "nano-train", "tiny-dense"])
def test_minimal_run_passes_its_output_check(name, modules):
    rec = run.run_workload(name, 0, 0.0, False, modules)
    assert rec["failed"] == 0 and rec["attempted"] >= 2, rec["failures"]
    assert set(rec["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(v > 0 for v in rec["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_cleans_up(modules):
    rec = run.run_workload("nano-eval", 0, 0.0, True, modules)
    assert rec["failed"] == 0, rec["failures"]
    assert set(rec["metrics"]) == set(run.metric_units("per_layer"))
    assert tracing.installed(modules) == []
    untraced = run.run_workload("nano-eval", 0, 0.0, False, modules)
    # the first measured unit is scene 0 in both runs
    assert rec["metrics"]["flops.per_op"] == untraced["flops_per_op"]


def test_gflops_use_the_same_units_for_flops_and_time(modules, monkeypatch):
    # a run over several cycles: FLOPs and span time both come from the first
    monkeypatch.setattr(workloads.WORKLOADS["nano-eval"], "cycle", 2)
    rec = run.run_workload("nano-eval", 0, 0.3, True, modules)
    assert rec["failed"] == 0, rec["failures"]
    assert rec["units"] > 4
    first, m = rec["first_pass"], rec["metrics"]
    assert first["images"] == 2
    for section, span in (("stage1", "stage1"), ("stage2", "stage2.refine")):
        seconds = first["seconds"][span]
        whole_run = rec["spans_per_op"][span]["ms"] * rec["units"] / 1000.0
        assert 0 < seconds < 0.75 * whole_run
        assert m[f"{section}.gflops_per_s"] == pytest.approx(first["flops"][section] / seconds / 1e9)
