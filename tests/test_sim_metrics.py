"""Tests for counters, gauges, histograms, and the metric registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Gauge, Histogram, MetricRegistry, merge_snapshots


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_add_default(self):
        counter = Counter("x")
        counter.add()
        counter.add()
        assert counter.value == 2

    def test_add_amount(self):
        counter = Counter("x")
        counter.add(10)
        assert counter.value == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_reset(self):
        counter = Counter("x")
        counter.add(3)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_requires_ascending_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", [3, 1, 2])

    def test_requires_nonempty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", [])

    def test_observations_bucketed(self):
        hist = Histogram("h", [1.0, 10.0])
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        assert hist.counts == [1, 1, 1]

    def test_mean(self):
        hist = Histogram("h", [100.0])
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == pytest.approx(3.0)

    def test_mean_empty(self):
        assert Histogram("h", [1.0]).mean == 0.0

    def test_quantile(self):
        hist = Histogram("h", [1.0, 2.0, 4.0])
        for value in [0.5, 0.5, 1.5, 3.0]:
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 4.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h", [1.0]).quantile(1.5)


class TestMetricRegistry:
    def test_counter_is_memoized(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_prefix_qualifies_names(self):
        registry = MetricRegistry("dram")
        registry.counter("reads").add(2)
        assert registry.snapshot() == {"dram.reads": 2}

    def test_histogram_needs_bounds_on_first_use(self):
        registry = MetricRegistry()
        with pytest.raises(ValueError):
            registry.histogram("lat")

    def test_histogram_memoized_after_bounds(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat", bounds=[1.0])
        assert registry.histogram("lat") is hist

    def test_snapshot_includes_histograms(self):
        registry = MetricRegistry()
        registry.histogram("lat", bounds=[1.0]).observe(0.5)
        snap = registry.snapshot()
        assert snap["lat.count"] == 1
        assert snap["lat.mean"] == pytest.approx(0.5)

    def test_reset_clears(self):
        registry = MetricRegistry()
        registry.counter("a").add(5)
        registry.reset()
        assert registry.snapshot()["a"] == 0

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricRegistry()
        registry.histogram("lat", bounds=[1.0, 2.0])
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("lat", bounds=[1.0, 3.0])

    def test_histogram_same_bounds_reuse_ok(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat", bounds=[1.0, 2.0])
        assert registry.histogram("lat", bounds=[1.0, 2.0]) is hist

    def test_labels_are_distinct_series(self):
        registry = MetricRegistry()
        registry.counter("flips", bank="0").add(2)
        registry.counter("flips", bank="1").add(3)
        snap = registry.snapshot()
        assert snap['flips{bank="0"}'] == 2
        assert snap['flips{bank="1"}'] == 3

    def test_label_order_canonical(self):
        registry = MetricRegistry()
        a = registry.counter("x", b="2", a="1")
        b = registry.counter("x", a="1", b="2")
        assert a is b

    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("c").add(1)
        b.counter("c").add(2)
        b.counter("only_b").add(7)
        a.histogram("h", bounds=[1.0]).observe(0.5)
        b.histogram("h", bounds=[1.0]).observe(2.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["c"] == 3
        assert snap["only_b"] == 7
        assert snap["h.count"] == 2

    def test_merge_bounds_mismatch_raises(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("h", bounds=[1.0]).observe(0.5)
        b.histogram("h", bounds=[2.0]).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_gauges_take_latest_reading(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.gauge("depth").set(4)
        b.gauge("depth").set(9)
        a.merge(b)
        assert a.snapshot()["depth"] == 9


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 4.0

    def test_reset(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.reset()
        assert gauge.value == 0.0

    def test_registry_memoizes(self):
        registry = MetricRegistry()
        assert registry.gauge("g") is registry.gauge("g")


class TestExposition:
    def test_counter_rendering(self):
        registry = MetricRegistry("dram")
        registry.counter("row.activations").add(3)
        text = registry.exposition()
        assert "# TYPE dram_row_activations counter" in text
        assert "dram_row_activations 3" in text

    def test_gauge_rendering(self):
        registry = MetricRegistry()
        registry.gauge("depth", queue="wb").set(2.5)
        text = registry.exposition()
        assert '# TYPE depth gauge' in text
        assert 'depth{queue="wb"} 2.5' in text

    def test_histogram_rendering_cumulative(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat", bounds=[1.0, 10.0])
        for value in (0.5, 5.0, 100.0):
            hist.observe(value)
        text = registry.exposition()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 105.5" in text
        assert "lat_count 3" in text

    def test_empty_registry_is_empty_text(self):
        assert MetricRegistry().exposition() == ""

    def test_deterministic(self):
        def build():
            registry = MetricRegistry()
            registry.counter("b").add(1)
            registry.counter("a").add(2)
            registry.gauge("g").set(1.5)
            registry.histogram("h", bounds=[1.0]).observe(0.5)
            return registry.exposition()

        assert build() == build()


class TestMergeSnapshots:
    def test_flattens_across_registries(self):
        a, b = MetricRegistry("dram"), MetricRegistry("ftl")
        a.counter("activations").add(4)
        b.counter("reads").add(2)
        merged = merge_snapshots(a, b)
        assert merged["dram.activations"] == 4
        assert merged["ftl.reads"] == 2


# ---------------------------------------------------------------------------
# Property-based hardening (hypothesis)
# ---------------------------------------------------------------------------

_bounds = st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6, unique=True,
).map(sorted)

_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    max_size=60,
)


def _scan_bucket(bounds, value):
    """The reference bucket: the first bound at or above the value, by a
    linear scan; NaN and values above every bound overflow."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def _hist_of(bounds, values):
    hist = Histogram("h", bounds)
    for value in values:
        hist.observe(value)
    return hist


class TestHistogramProperties:
    @given(
        data=st.data(),
        bounds=st.lists(st.floats(allow_nan=False), min_size=1, max_size=6).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_bucket_matches_the_scan(self, data, bounds):
        """Any float, ±inf and NaN included, and values equal to a bound
        land where the linear scan puts them, once or repeated."""
        values = data.draw(
            st.lists(st.one_of(st.floats(), st.sampled_from(bounds)), max_size=30)
        )
        single, bulk = Histogram("a", bounds), Histogram("b", bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            expected[_scan_bucket(bounds, value)] += 1
            single.observe(value)
            for _ in range(3):
                bulk.observe(value)
        assert single.counts == expected
        assert bulk.counts == [3 * count for count in expected]
        assert single.total == len(values)

    @given(bounds=_bounds, values=_values)
    @settings(max_examples=60, deadline=None)
    def test_cumulative_buckets_monotone_and_conserve_total(self, bounds, values):
        hist = _hist_of(bounds, values)
        running, cumulative = 0, []
        for count in hist.counts:
            assert count >= 0
            running += count
            cumulative.append(running)
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.total == len(values)
        assert hist.sum == pytest.approx(sum(values))

    @given(bounds=_bounds, a=_values, b=_values)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes(self, bounds, a, b):
        ab = _hist_of(bounds, a)
        ab.merge(_hist_of(bounds, b))
        ba = _hist_of(bounds, b)
        ba.merge(_hist_of(bounds, a))
        assert ab.counts == ba.counts
        assert ab.total == ba.total
        assert ab.sum == pytest.approx(ba.sum)

    @given(bounds=_bounds, a=_values, b=_values, c=_values)
    @settings(max_examples=60, deadline=None)
    def test_merge_associates(self, bounds, a, b, c):
        left = _hist_of(bounds, a)
        left.merge(_hist_of(bounds, b))
        left.merge(_hist_of(bounds, c))
        bc = _hist_of(bounds, b)
        bc.merge(_hist_of(bounds, c))
        right = _hist_of(bounds, a)
        right.merge(bc)
        assert left.counts == right.counts
        assert left.total == right.total
        assert left.sum == pytest.approx(right.sum)

    @given(bounds=_bounds, values=_values)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, bounds, values):
        whole = _hist_of(bounds, values)
        half = len(values) // 2
        merged = _hist_of(bounds, values[:half])
        merged.merge(_hist_of(bounds, values[half:]))
        assert merged.counts == whole.counts


class TestCounterProperties:
    @given(amounts=st.lists(st.integers(min_value=0, max_value=2**63),
                            max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_no_overflow_exact_arbitrary_precision(self, amounts):
        counter = Counter("c")
        for amount in amounts:
            counter.add(amount)
        assert counter.value == sum(amounts)
        assert isinstance(counter.value, int)

    @given(amount=st.integers(min_value=-2**63, max_value=-1))
    @settings(max_examples=30, deadline=None)
    def test_any_negative_rejected(self, amount):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.add(amount)
        assert counter.value == 0


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("counter"), st.sampled_from("abc"),
                  st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("gauge"), st.sampled_from("gh"),
                  st.floats(min_value=-100, max_value=100,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("hist"), st.just("lat"),
                  st.floats(min_value=0, max_value=100,
                            allow_nan=False, allow_infinity=False)),
    ),
    max_size=50,
)


def _apply(registry, ops):
    for kind, name, value in ops:
        if kind == "counter":
            registry.counter(name).add(value)
        elif kind == "gauge":
            registry.gauge(name).set(value)
        else:
            registry.histogram(name, bounds=[1.0, 10.0]).observe(value)


class TestRegistryProperties:
    @given(ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_snapshot_is_a_pure_function_of_the_op_sequence(self, ops):
        a, b = MetricRegistry(), MetricRegistry()
        _apply(a, ops)
        _apply(b, ops)
        assert a.snapshot() == b.snapshot()
        assert a.exposition() == b.exposition()

    @given(ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_reset_round_trip(self, ops):
        registry = MetricRegistry()
        _apply(registry, ops)
        registry.reset()
        for value in registry.snapshot().values():
            assert value == 0
        _apply(registry, ops)
        fresh = MetricRegistry()
        _apply(fresh, ops)
        assert registry.snapshot() == fresh.snapshot()

    @given(a=_ops, b=_ops)
    @settings(max_examples=60, deadline=None)
    def test_registry_merge_matches_concatenation_for_counters_and_hists(
        self, a, b
    ):
        merged = MetricRegistry()
        _apply(merged, a)
        other = MetricRegistry()
        _apply(other, b)
        merged.merge(other)
        concat = MetricRegistry()
        _apply(concat, a + b)
        snap_merged, snap_concat = merged.snapshot(), concat.snapshot()
        assert set(snap_merged) == set(snap_concat)
        for key, value in snap_concat.items():
            if key in ("g", "h") or key.endswith(".mean"):
                continue  # gauges keep the other's reading, means are ratios
            assert snap_merged[key] == pytest.approx(value)


class TestPercentile:
    """Exact-rank percentiles: the serving layer's p50/p95/p99 source."""

    def test_empty_is_zero(self):
        assert Histogram("h", [1.0]).percentile(0.5) == 0.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h", [1.0]).percentile(-0.1)
        with pytest.raises(ValueError):
            Histogram("h", [1.0]).percentile(1.1)

    def test_reports_bucket_upper_edges(self):
        hist = Histogram("h", [1.0, 2.0, 4.0])
        for value in [0.5, 0.6, 1.5, 3.0]:
            hist.observe(value)
        assert hist.percentile(0.50) == 1.0
        assert hist.percentile(0.75) == 2.0
        assert hist.percentile(1.00) == 4.0

    def test_overflow_reports_inf(self):
        hist = Histogram("h", [1.0])
        hist.observe(5.0)
        assert hist.percentile(0.99) == float("inf")

    def test_percentiles_dict(self):
        hist = Histogram("h", [1.0, 2.0])
        hist.observe(0.5)
        assert hist.percentiles() == {"p50": 1.0, "p95": 1.0, "p99": 1.0}

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_inverted_cdf_on_bucketed_values(self, values, q):
        """percentile(q) == numpy.quantile(method="inverted_cdf") applied
        to the observations after bucketing (each value snapped to its
        bucket's upper edge, inf for the overflow bucket) — the histogram
        adds bucketing error, never rank error."""
        numpy = pytest.importorskip("numpy")
        bounds = [0.5, 1.0, 2.0, 5.0, 8.0]
        hist = Histogram("h", bounds)
        snapped = []
        for value in values:
            hist.observe(value)
            snapped.append(
                next(
                    (bound for bound in bounds if value <= bound),
                    float("inf"),
                )
            )
        expected = float(
            numpy.quantile(numpy.array(snapped), q, method="inverted_cdf")
        )
        assert hist.percentile(q) == expected

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=50), min_size=4, max_size=4
        ),
        q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_on_exact_edge_observations(self, counts, q):
        """Observations placed exactly on bucket edges suffer no bucketing
        error at all, so the histogram must agree with numpy on the raw
        data, not just the snapped data."""
        numpy = pytest.importorskip("numpy")
        bounds = [1.0, 2.0, 4.0, 8.0]
        hist = Histogram("h", bounds)
        raw = []
        for bound, count in zip(bounds, counts):
            for _ in range(count):
                hist.observe(bound)
            raw.extend([bound] * count)
        if not raw:
            assert hist.percentile(q) == 0.0
            return
        expected = float(
            numpy.quantile(numpy.array(raw), q, method="inverted_cdf")
        )
        assert hist.percentile(q) == expected
