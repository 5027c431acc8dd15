"""Tests of the benchmark's own logic: span arithmetic, tail selection,
calibration scaling and the wrapper installer.  They need neither kfpca nor
a benchmark run."""

import json
import random
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from spans import Span, Target, Tracer, covered_ns, installed, self_times  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return Span(sid, parent, 0, name, start, end)


class TestSelfTime:
    def test_self_time_is_span_minus_children(self):
        spans = [
            span(0, None, 0, 100),
            span(1, 0, 10, 30),
            span(2, 1, 12, 20),  # grandchild: counts against its parent only
            span(3, 0, 40, 70),
        ]
        got = self_times(spans)
        assert got == {0: 100 - 20 - 30, 1: 20 - 8, 2: 8, 3: 30}

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span(0, None, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 50),  # overlaps child 1 by 10
            span(3, 0, 90, 130),  # runs past the parent's end
        ]
        assert self_times(spans)[0] == 100 - 40 - 10

    def test_covered_ns_merges_unsorted_nested_intervals(self):
        assert covered_ns([(50, 60), (0, 10), (2, 8), (5, 20)], 0, 100) == 30
        assert covered_ns([], 0, 100) == 0


class TestTail:
    @pytest.mark.parametrize(
        "n, percentile, beyond",
        [
            (100_000, 99.9, 100),
            (10_000, 99.9, 10),
            (9_999, 99.8, 19),
            (2_000, 99.5, 10),
            (1_000, 99.0, 10),
            (999, 98.0, 19),
            (25, 60.0, 10),
            (20, 50.0, 10),
            (15, 50.0, 7),  # too few samples for any tail: the median
        ],
    )
    def test_percentile_follows_sample_count(self, n, percentile, beyond):
        values = list(range(1, n + 1))
        random.Random(n).shuffle(values)
        got_pct, got_value, got_beyond = stats.tail(values)
        assert (got_pct, got_beyond) == (percentile, beyond)
        # values are 1..n, so the nearest-rank value is the rank itself
        assert got_value == n - beyond

    def test_single_sample(self):
        assert stats.tail([3.5]) == (50.0, 3.5, 0)



class TestCalibration:
    def test_times_are_scaled_by_the_readings_around_them(self):
        ref = calibrate.REFERENCE_MS
        readings = [ref, ref, 2 * ref, 4 * ref]
        # at reference speed, then 1.5 and 3 times slower
        got = calibrate.scaled([3.0, 3.0, 6.0], [0, 1, 2], readings)
        assert got == [3.0, 2.0, 2.0]

    def test_a_time_with_no_reading_before_uses_the_one_after(self):
        ref = calibrate.REFERENCE_MS
        assert calibrate.scaled([3.0, 3.0], [-1, 0], [2 * ref, ref]) == [1.5, 2.0]

    def test_readings_are_taken_when_due(self):
        cal = calibrate.Calibrator()
        assert cal.due()
        assert cal.read() == 0
        assert not cal.due()
        assert len(cal.readings_ms) == 1 and cal.readings_ms[0] > 0

@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_layer")

    def compute(x):
        return x + 1

    def boom():
        raise RuntimeError("boom")

    class Base:
        def hook(self):
            return "base"

    class Child(Base):
        pass

    mod.compute, mod.boom, mod.Base, mod.Child = compute, boom, Base, Child
    sys.modules["fake_layer"] = mod
    yield mod
    del sys.modules["fake_layer"]


class TestInstalled:
    def test_missing_names_are_reported_and_the_rest_wrapped(self, fake_module):
        original = fake_module.compute
        targets = [
            Target("fake_layer", "compute", "fake.compute"),
            Target("fake_layer", "renamed_away", "fake.renamed_away"),
            Target("fake_layer", "Gone.method", "fake.gone"),
            Target("no_such_module_anywhere", "f", "fake.f"),
            Target("fake_layer", "Child.hook", "fake.hook", count_only=True),
        ]
        tracer = Tracer()
        with installed(tracer, targets) as absent:
            assert absent == [
                "fake_layer.renamed_away",
                "fake_layer.Gone.method",
                "no_such_module_anywhere.f",
            ]
            assert fake_module.compute is not original
            assert fake_module.compute(1) == 2  # outside an operation: not recorded
            with tracer.operation(0):
                assert fake_module.compute(2) == 3
                assert fake_module.Child().hook() == "base"
        assert fake_module.compute is original
        assert "hook" not in vars(fake_module.Child)  # inherited again, not copied
        names = [s.name for s in tracer.spans]
        assert names == ["fake.compute", "op"]
        assert tracer.spans[0].parent == tracer.spans[1].id
        assert tracer.counts == {"fake.hook": 1}

    def test_wrappers_are_removed_when_the_block_raises(self, fake_module):
        original = fake_module.boom
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with installed(tracer, [Target("fake_layer", "boom", "fake.boom")]):
                with tracer.operation(0):
                    fake_module.boom()
        assert fake_module.boom is original
        assert [s.name for s in tracer.spans] == ["fake.boom", "op"]

    def test_failing_note_does_not_break_the_call(self, fake_module):
        def bad_note(args, kwargs, result):
            raise KeyError("missing")

        tracer = Tracer()
        with installed(tracer, [Target("fake_layer", "compute", "f.c", note=bad_note)]):
            with tracer.operation(0):
                assert fake_module.compute(1) == 2
        assert tracer.spans[0].note is None


def test_benchmark_json_lists_the_per_layer_metrics_the_code_reports():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    reported = [(name, unit, better) for name, unit, better, *_ in layers.PER_LAYER]
    assert declared == reported
