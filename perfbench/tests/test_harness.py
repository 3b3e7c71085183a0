"""Self-tests for the benchmark harness (not part of the program's suite).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import importlib
import multiprocessing

import numpy as np
import pytest

from loadgen import OpenLoopResult, due_times, run_open_loop, window_percentiles
from stats import supported_percentile
from tracer import Span, Tracer, covered_length, self_times


# -- highest percentile with >= 10 samples beyond it ------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_supported_percentile(count, expected):
    assert supported_percentile(count) == expected


# -- open loop: latency from the due time ----------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_latency_is_timed_from_each_points_due_time():
    clock = FakeClock()
    due = [np.array([0.0, 0.004, 0.0045, 0.012])]
    rounds = []

    def submit(items):
        rounds.append(items)
        clock.now += 0.001

    result = run_open_loop(due, submit, clock=clock, sleep=clock.sleep)
    # the generator sleeps until the next point is due and sends it at
    # once: the point due at 0.0045 falls due while the one due at 0.004
    # is in flight (until 0.005) and waits for that round only.
    assert rounds == [[(0, 0, 1)], [(0, 1, 2)], [(0, 2, 3)], [(0, 3, 4)]]
    assert result.latencies.tolist() == pytest.approx([0.001, 0.001, 0.0015, 0.001])
    assert result.lags == pytest.approx([0.0, 0.0, 0.0, 0.0])


def test_points_due_during_a_round_go_out_together():
    clock = FakeClock()
    due = [np.array([0.0, 0.0002, 0.0004]), np.array([0.0001, 0.0003])]
    rounds = []

    def submit(items):
        rounds.append(items)
        clock.now += 0.001

    result = run_open_loop(due, submit, clock=clock, sleep=clock.sleep)
    assert rounds == [[(0, 0, 1)], [(0, 1, 3), (1, 0, 2)]]
    # acks at 0.001 and 0.002; latencies in due-time order
    assert result.latencies.tolist() == pytest.approx(
        [0.001, 0.002 - 0.0001, 0.002 - 0.0002, 0.002 - 0.0003, 0.002 - 0.0004]
    )
    assert result.rounds == 2


def test_stall_shows_in_later_points_latency():
    clock = FakeClock()
    due = [np.arange(10) * 0.01, np.arange(10) * 0.01 + 0.005]
    acked = {}

    def submit(items):
        # the round that carries point 2 of stream 0 stalls for 100 ms
        stalled = any(s == 0 and first <= 2 < stop for s, first, stop in items)
        clock.now += 0.1 if stalled else 0.001
        acked.update({(s, i): clock.now for s, first, stop in items for i in range(first, stop)})

    result = run_open_loop(due, submit, clock=clock, sleep=clock.sleep)
    assert len(acked) == 20 and len(result.latencies) == 20
    latency = {key: at - due[key[0]][key[1]] for key, at in acked.items()}
    assert sorted(result.latencies.tolist()) == pytest.approx(sorted(latency.values()))
    # the round sent at t=0.02 carries (0, 2) alone and is acked at 0.12
    assert latency[(0, 2)] == pytest.approx(0.1)
    # points that fell due during the stall go out in the next round
    # (sent 0.12, acked 0.121); each is timed from its own due time, so
    # the stall shows in all of them.
    assert latency[(1, 2)] == pytest.approx(0.121 - 0.025)
    assert latency[(0, 3)] == pytest.approx(0.121 - 0.03)
    assert latency[(1, 9)] == pytest.approx(0.121 - 0.095)
    assert latency[(0, 1)] == pytest.approx(0.001)
    assert latency[(0, 9)] == pytest.approx(0.121 - 0.09)
    # the generator itself sent every round on time
    assert max(result.lags) == pytest.approx(0.0)


def test_due_times_offer_the_requested_rate():
    due = due_times(4, 100, 400.0, np.random.default_rng(0))
    assert len(due) == 4
    assert all(np.allclose(np.diff(times), 4 / 400.0) for times in due)
    assert all(0.0 <= times[0] < 4 / 400.0 for times in due)


def test_a_stall_sets_the_tail_of_its_own_window_only():
    due = np.arange(4000) * 0.001  # 1 000 points/s for 4 s
    latencies = np.full(4000, 0.002)
    latencies[1500:1520] = 0.050  # a stall in the second window
    result = OpenLoopResult(due=due, latencies=latencies)
    windows = window_percentiles(result, 1.0, (50.0, 99.0))
    assert [count for count, _ in windows] == [1000, 1000, 1000, 1000]
    p99 = [values[1] for _, values in windows]
    assert p99[1] == pytest.approx(0.050)
    assert p99[0] == p99[2] == p99[3] == pytest.approx(0.002)
    # the median over windows reads the stall-free tail
    assert float(np.median(p99)) == pytest.approx(0.002)


def test_window_percentiles_keep_a_partial_last_window_with_its_count():
    result = OpenLoopResult(due=np.array([0.0, 0.1, 0.6]), latencies=np.array([1.0, 3.0, 5.0]))
    windows = window_percentiles(result, 0.5, (50.0,))
    assert [(count, values.tolist()) for count, values in windows] == [(2, [2.0]), (1, [5.0])]
    assert window_percentiles(OpenLoopResult(), 0.5, (50.0,)) == []


# -- self time --------------------------------------------------------------
def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (9, 12)], 0, 10) == pytest.approx(5.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(-5, -1), (11, 20)], 0, 10) == 0.0


def test_self_time_is_span_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, 1, -1, 1),
        Span("a", 1.0, 3.0, 2, 1, 1),
        Span("b", 2.0, 5.0, 3, 1, 1),  # overlaps a: counted once
        Span("c", 4.0, 4.5, 4, 3, 1),  # grandchild: covers b, not root
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_nested_wrappers_record_parents(tmp_path):
    tracer = Tracer(["outer", "inner"], tmp_path / "lock")
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    spans = {s.name: s for s in tracer.collect()}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id == -1
    tracer.close()


def _child(fn):
    fn()


def test_forked_child_spans_come_back(tmp_path):
    tracer = Tracer(["work"], tmp_path / "lock")
    work = tracer.wrap(lambda: sum(range(100)), "work")
    process = multiprocessing.get_context("fork").Process(target=_child, args=(work,))
    process.start()
    process.join(timeout=30)
    assert not process.is_alive()
    assert process.exitcode == 0
    spans = tracer.collect()
    assert [s.name for s in spans] == ["work"]
    assert spans[0].pid == process.pid
    assert tracer.dropped == 0
    tracer.close()


# -- traced-run wrappers restore every patched attribute --------------------
def _resolve(module_name, class_name, attr):
    module = importlib.import_module(module_name)
    if class_name is None:
        return getattr(module, attr)
    return vars(getattr(module, class_name))[attr]


def test_install_patches_and_restores_everything(tmp_path):
    import layers
    from repro.nn import hooks

    targets = layers.TARGETS + [layers.ENCODER + (layers.ENCODER_TRAIN,)]
    before = {t[:3]: _resolve(*t[:3]) for t in targets}
    hook_before = hooks.get_timing_hook()

    tracer = Tracer(layers.SPAN_NAMES, tmp_path / "lock")
    patcher = layers.install(tracer)
    assert len(patcher.patched) == len(targets)
    for key, original in before.items():
        assert _resolve(*key) is not original, key
    assert hooks.get_timing_hook() is not hook_before

    patcher.restore()
    tracer.close()
    for key, original in before.items():
        assert _resolve(*key) is original, key
    assert hooks.get_timing_hook() is hook_before
