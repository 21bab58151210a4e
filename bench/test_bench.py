"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the root."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from vetopersuasion import lsolve, qsolve  # noqa: E402
from vetopersuasion.accept import BinaryTypeEnv  # noqa: E402
from vetopersuasion.errors import AssumptionViolatedError  # noqa: E402
from vetopersuasion.prefs import Linear, Power  # noqa: E402
from vetopersuasion.qsolve import Regime, SolveOutcome  # noqa: E402


def _specs(workload, seed):
    return [[(i.kind, i.classes, i.spec) for i in block]
            for block in run.build_blocks(workload, seed, 3)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _specs(workload, 7) == _specs(workload, 7)
    assert _specs(workload, 7) != _specs(workload, 8)


def test_quad_block_class_shares_are_exact():
    import random

    for block in W.quad_blocks(random.Random(3), 4):
        priors = [i.classes["prior"] for i in block]
        assert priors.count("tilt") == 3 and len(block) == 12
        assert sum(1 for i in block if i.args[1] == Power(2.0)) >= 1


def test_latin_rows_put_one_row_in_every_stratum():
    import random

    rows = W.LatinRows(random.Random(5), 8, 3)
    coords = []
    for _ in range(8):
        row = rows.next()
        coords.append([row.random() for _ in range(3)])
    for j in range(3):
        assert sorted(int(8 * c[j]) for c in coords) == list(range(8))


def test_self_times_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3]; a second
    # root [11, 12] has no children.
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert list(spans.self_times(parent, start, end)) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_summary_adds_self_time_by_layer_and_counts_under_ancestor():
    t = spans.Tracer()
    for name, parent, s, e in [("bench.op", -1, 0.0, 1.0),
                               ("lsolve.solve_persuasion_first_binary", 0, 0.1, 0.9),
                               ("lsolve.uhat", 1, 0.2, 0.3),
                               ("lsolve.uhat", 0, 0.95, 0.97)]:
        t.name.append(t.name_id(name))
        t.parent.append(parent)
        t.start.append(s)
        t.end.append(e)
    s = t.summary()
    assert s.ms("lsolve") == pytest.approx(1e3 * (0.7 + 0.1 + 0.02))
    assert s.ms("bench") == pytest.approx(1e3 * 0.18)
    assert s.under["lsolve.uhat<lsolve.solve_persuasion_first_binary"] == 1
    assert s.roots_s == pytest.approx(1.0)
    m = spans.layer_metrics(s, 1.0, 0.5, {})
    assert m["lsolve.uhat.calls_per_solve"] == 1.0
    assert m["trace.overhead_ratio"] == 2.0


def test_install_wraps_every_namespace_and_undo_restores():
    original = lsolve.psi_cap
    t = spans.Tracer()
    inst = spans.install(t)
    try:
        # psi_cap is defined in accept and bound by name in lsolve.
        assert lsolve.psi_cap is not original
        lsolve.solve_persuasion_first_binary(BinaryTypeEnv(0.1, 0.7, 0.2), Linear())
    finally:
        inst.undo()
    assert lsolve.psi_cap is original
    s = t.summary()
    assert s.n("accept.psi_cap") > 0
    assert s.n("lsolve.solve_persuasion_first_binary") == 1
    assert s.counters["lsolve.hull_points"] > s.counters["lsolve.hull_vertices"] > 0


def test_missing_target_reads_zero(monkeypatch):
    monkeypatch.delattr(qsolve, "brentq")
    t = spans.Tracer()
    inst = spans.install(t)
    inst.undo()
    assert "qsolve.brentq" in inst.missing
    m = spans.layer_metrics(t.summary(), 1.0, 1.0, {})
    assert m["qsolve.brentq.calls"] == 0


def _quad_inst():
    from vetopersuasion.dist import UniformInterval

    return W.Instance("quad", {"prior": "uniform", "loss": "linear"}, {},
                      (UniformInterval(-1.0, 1.0), Linear()))


def _outcome(value):
    return SolveOutcome(Regime.BINARY_CUTOFF, -0.5, 0.25, 0.5, value, 0.25)


def test_classify_non_domain_exception_is_failed():
    result = (W.Attempt(value=_outcome(-0.5)), W.Attempt(error=ZeroDivisionError("boom")))
    outcome, reason = W.classify(_quad_inst(), result)
    assert outcome == W.FAILED and "ZeroDivisionError" in reason
    assert W.known_defect(_quad_inst(), result) is None


def test_classify_check_mismatch_is_failed():
    result = (W.Attempt(value=_outcome(-0.5)), W.Attempt(value=_outcome(-0.5 - 1e-6)))
    outcome, reason = W.classify(_quad_inst(), result)
    assert outcome == W.FAILED and "|pf - prf|" in reason
    ok = (W.Attempt(value=_outcome(-0.5)), W.Attempt(value=_outcome(-0.5 - 1e-12)))
    assert W.classify(_quad_inst(), ok) == (W.OK, None)


def test_classify_refusal():
    inst = W.Instance("linear2", {"model": "linear2", "loss": "power"}, {},
                      (BinaryTypeEnv(0.1, 0.2, 0.5), Power(2.0)))
    result = (W.Attempt(value=None), W.Attempt(error=AssumptionViolatedError("not qc")))
    assert W.classify(inst, result)[0] == W.REFUSED


def test_cli_child_exiting_1_is_failed():
    argv, code, label = W.ROBUSTNESS[0]  # power:nan, expected to exit 2
    inst = W._cli(label, argv, code)
    result = W.run_cli(inst.args, run.child_env(), str(run.ROOT))
    exit_code = result.value[0]
    outcome, reason = W.check_cli(inst, result.value, W.CliReference())
    assert outcome == W.FAILED and reason.startswith(f"exit {exit_code}, expected 2")
    # A synthetic child that exits 1 on an input that should solve.
    quad = W._cli("solve-quad-pf", ("solve",), 0, value=-11.0 / 27.0)
    outcome, reason = W.check_cli(quad, (1, "", "Traceback\nValueError: x"), W.CliReference())
    assert outcome == W.FAILED and reason == "exit 1, expected 0: ValueError: x"
    assert W.known_defect(quad, W.Attempt(value=(1, "", ""))) is None


def test_parse_importtime_groups_self_time():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       200 |        200 |     scipy.integrate",
        "import time:        10 |        10 | vetopersuasion.dist",
        "import time:         5 |          5 | json",
    ])
    got = run.parse_importtime(text)
    assert got == pytest.approx({"numpy": 0.15, "scipy": 0.2, "vetopersuasion": 0.01,
                                 "other": 0.005})


def test_refuses_to_run_without_the_package(monkeypatch):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-directory")
    assert run.main(["--workload", "quad-solve", "--seed", "1"]) == 2


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert run.percentile([0.0, 10.0], 90.0) == 9.0


def test_pace_pins_to_one_allowed_cpu_and_scales_by_the_kernel():
    pace = run.Pace()
    allowed = set(pace.cpus)
    try:
        factor = pace(force=True)
        assert factor == pytest.approx(run.Pace.NOMINAL_S / pace.readings[-1])
        if len(allowed) >= 2:
            pinned = run.os.sched_getaffinity(0)
            assert len(pinned) == 1 and pinned <= allowed
            assert pace.spent > 0 and sum(pace.picks.values()) == 1
        assert pace() == factor  # within the interval: no new check
        assert len(pace.readings) == 1
    finally:
        if allowed:
            run.os.sched_setaffinity(0, allowed)


def test_outcomes_count_pool_instances_and_disagreeing_executions_fail():
    inst = _quad_inst()
    ok = (W.Attempt(value=_outcome(-0.5)), W.Attempt(value=_outcome(-0.5)))
    bad = (W.Attempt(value=_outcome(-0.5)), W.Attempt(error=ZeroDivisionError("boom")))
    loop = run.Loop()
    loop.samples = [(0, ok, 0.01, 0.02), (1, ok, 0.01, 0.02),
                    (0, ok, 0.03, 0.04), (1, bad, 0.01, 0.02)]
    rows = run.classify_all("quad-solve", [inst, inst], loop)
    assert [r["outcome"] for r in rows] == [W.OK, W.FAILED]
    assert "differs between executions" in rows[1]["reason"]
    rec = run.record("quad-solve", rows, loop)
    assert (rec["attempted"], rec["ok"], rec["failed"], rec["executions"]) == (2, 1, 1, 4)
    assert rec["latency_p50_ms"] == pytest.approx(20.0)  # paced, ok instance only
    assert rec["raw_latency_p50_ms"] == pytest.approx(10.0)
    assert rec["throughput_per_s"] == pytest.approx(1 / (0.02 + 0.02))  # one pass
