"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GLYPH_REF = checks.REFERENCE / "glyph-train"


def _spans(rows):
    """rows: (name, start, end, parent index)."""
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows]),
    }


# ------------------------------------------------------------ self time ---


def test_self_time_subtracts_direct_children_only():
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(tracer.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_group_time_counts_nested_calls_of_one_group_once():
    spans = _spans([
        ("cli.main", 0.0, 20.0, -1),
        ("variational.net_action_identity", 1.0, 11.0, 0),
        ("variational.action_entropy", 2.0, 6.0, 1),
        ("variational.lagrangian", 3.0, 4.0, 2),
        ("dynamics.sigmoid", 7.0, 8.0, 1),
    ])
    g = tracer.group_stats(spans)
    assert g["variational"]["calls"] == 3
    assert g["variational"]["s"] == 10.0
    assert g["variational"]["self_s"] == pytest.approx(9.0)
    assert g["cli"]["self_s"] == 10.0
    assert g["dynamics.sigmoid"]["s"] == 1.0


def test_wrapper_records_parents_work_and_errors():
    t = tracer.Tracer()
    matmul = t.wrap("linalg.matmul", lambda a, b: a @ b, tracer.WORK["linalg.matmul"])

    def boom():
        raise ValueError("bad")

    outer = t.wrap("dynamics.step", lambda: matmul(np.ones((2, 3)), np.ones((3, 4))))
    failing = t.wrap("dynamics.forward", boom)
    outer()
    with pytest.raises(ValueError):
        failing()
    assert t.parent == [-1, 0, -1]
    assert t.work["linalg.matmul"] == {"flop": 48, "bytes": 8 * (6 + 12 + 8)}
    assert t.errors == {"dynamics.forward": 1}
    assert all(e >= s for s, e in zip(t.start, t.end))


# ------------------------------------------------------- percentile rule ---


@pytest.mark.parametrize("n, tail", [
    (9, None), (19, None), (20, 50.0), (51, 50.0), (99, 50.0), (100, 90.0),
    (2059, 99.0), (18002, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, tail):
    assert tracer.tail_percentile(n) == tail


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert tracer.percentile(values, 50.0) == 50
    assert tracer.percentile(values, 90.0) == 90
    assert tracer.percentile([7.0], 99.9) == 7.0


# ------------------------------------------------ computed flop and bytes ---


def _counted_matmul_flop(m, k, n):
    flop = 0
    for _ in range(m):
        for _ in range(n):
            for _ in range(k):
                flop += 2  # one multiply, one add
    return flop


def test_matmul_work_matches_counted_loop_and_operand_sizes():
    flop, nbytes = tracer.matmul_work((3, 5), (5, 2))
    assert flop == _counted_matmul_flop(3, 5, 2)
    a, b = np.zeros((3, 5)), np.zeros((5, 2))
    assert nbytes == a.nbytes + b.nbytes + (a @ b).nbytes


def test_outer_mean_work_is_transposed_product_plus_division():
    flop, nbytes = tracer.outer_mean_work((6, 4), (6, 3))
    assert flop == _counted_matmul_flop(4, 6, 3) + 4 * 3
    assert nbytes == 8 * (6 * 4 + 6 * 3 + 4 * 3)


def test_config_implied_step_counts():
    steps = {name: workloads.expected_counts(name, w["config"])["dynamics.step.calls"]
             for name, w in workloads.WORKLOADS.items()}
    assert steps == {"glyph-train": 51, "family-invariance": 2059, "unit-variational": 18002}
    for name, w in workloads.WORKLOADS.items():
        assert workloads.euler_steps(name, w["config"]) == steps[name]


def test_variants_come_from_the_seed_alone():
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 3) == workloads.configs(name, 3)
        assert workloads.configs(name, 3)["variant"] != workloads.configs(name, 4)["variant"]
        assert workloads.configs(name, 3)["frozen"] == workloads.WORKLOADS[name]["config"]


# --------------------------------------------------------- output checks ---


@pytest.fixture
def produced(tmp_path):
    for f in ("trace.csv", "markers.csv"):
        shutil.copyfile(GLYPH_REF / f, tmp_path / f)
    return tmp_path


def _perturb(path, row, column, share):
    """Shift one cell of a trace CSV by `share` of its layer's column range."""
    head, rows = checks.read_table(path)
    j = head.index(column)
    layer = rows[row][head.index("layer")]
    col = [float(r[j]) for r in rows if r[head.index("layer")] == layer]
    rows[row][j] = repr(float(rows[row][j]) + share * (max(col) - min(col)))
    path.write_text("\n".join(",".join(r) for r in [head, *rows]) + "\n")


def test_reference_trace_passes_its_own_checks(produced):
    assert checks.compare_table(produced / "trace.csv", GLYPH_REF / "trace.csv",
                                checks.TRACE_KEYS, ("layer",)) == []
    trace = checks.trace_columns(produced / "trace.csv")
    assert checks.compare_markers(produced / "markers.csv", GLYPH_REF / "markers.csv",
                                  trace) == []
    assert checks.glyph_shapes(trace) == []


def test_threading_noise_is_accepted(produced):
    _perturb(produced / "trace.csv", 57, "net_cum", 1e-13)
    assert checks.compare_table(produced / "trace.csv", GLYPH_REF / "trace.csv",
                                checks.TRACE_KEYS, ("layer",)) == []


@pytest.mark.parametrize("column", ["entropy_step", "cosine", "net_cum"])
def test_perturbed_trace_is_rejected(produced, column):
    _perturb(produced / "trace.csv", 57, column, 1e-6)
    failures = checks.compare_table(produced / "trace.csv", GLYPH_REF / "trace.csv",
                                    checks.TRACE_KEYS, ("layer",))
    assert len(failures) == 1 and column in failures[0]


def test_perturbed_marker_is_rejected(produced):
    path = produced / "markers.csv"
    lines = path.read_text().splitlines()
    layer, kind, step, value = lines[1].split(",")
    lines[1] = ",".join([layer, kind, step, repr(float(value) * (1 + 1e-6))])
    path.write_text("\n".join(lines) + "\n")
    trace = checks.trace_columns(produced / "trace.csv")
    assert checks.compare_markers(path, GLYPH_REF / "markers.csv", trace)


def test_decreasing_z_norm_breaks_the_shape_check(produced):
    trace = checks.trace_columns(produced / "trace.csv")
    trace["z_norm"][30, 1] = trace["z_norm"][29, 1] - 1.0
    assert checks.glyph_shapes(trace) == ["layer 1: z_norm decreases after step 5"]


def test_variational_floor_rejects_a_large_crossing_residual(tmp_path):
    report = json.loads((checks.REFERENCE / "unit-variational"
                         / "variational_report.json").read_text())
    path = tmp_path / "variational_report.json"
    path.write_text(json.dumps(report))
    assert checks.variational_floor(path, zdot_max=0.3) == []
    report["units"][0]["net_identity_crossings"][0]["residual"] = 1.0
    path.write_text(json.dumps(report))
    assert len(checks.variational_floor(path, zdot_max=0.3)) == 1


def test_digests_see_a_changed_byte(produced):
    before = checks.digests(produced)
    path = produced / "markers.csv"
    path.write_bytes(path.read_bytes().replace(b"entropy_min", b"entropy_mix", 1))
    after = checks.digests(produced)
    assert {f for f in before if before[f] != after[f]} == {"markers.csv"}


def test_benchmark_json_lists_what_the_run_prints():
    import run

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
