"""Metrics hardening: hostile label values and concurrent scrapes.

Two failure classes the exposition endpoint must survive:

* label *values* are user-influenced (collection names, shard ids) —
  backslashes, quotes, and newlines must be escaped per the Prometheus
  text format, never able to break out of the quoting or inject lines;
* ``GET /metrics`` races concurrent writers — every scrape must be
  well-formed and counters must read monotonically across scrapes.
"""

import re
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.client import RestRouter
from repro.datasets import random_queries, sift_like
from repro.obs import MetricsRegistry

SAMPLE_LINE = re.compile(
    r'^[a-z][a-z0-9_]*(_bucket|_sum|_count)?'
    r'(\{([a-z0-9_]+="(\\.|[^"\\\n])*",?)+\})? -?[0-9].*$'
)


@pytest.fixture()
def obs_on():
    handle = obs.enable()
    yield handle
    obs.disable()


def _parse_exposition(text):
    """-> {metric-sample-name-with-labels: float} for non-comment lines."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        out[key] = float(value)
    return out


class TestHostileLabels:
    @pytest.mark.parametrize("hostile", [
        'back\\slash', 'quo"te', 'new\nline',
        'all\\"of\nthem\\', '} injected_total 999',
    ])
    def test_hostile_value_cannot_break_exposition(self, hostile):
        reg = MetricsRegistry()
        reg.counter("reqs_total", collection=hostile).inc(3)
        text = reg.render_prometheus()
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        # exactly one sample, still matching the exposition grammar
        assert len(lines) == 1
        assert SAMPLE_LINE.match(lines[0]), lines[0]
        # no raw newline/quote escaped the label value
        assert "\n" not in lines[0]
        assert lines[0].endswith(" 3")

    def test_escaping_round_trips_the_value(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", coll='a\\b"c\nd').inc()
        text = reg.render_prometheus()
        assert 'coll="a\\\\b\\"c\\nd"' in text

    def test_distinct_hostile_values_stay_distinct(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", c='a"b').inc(1)
        reg.counter("reqs_total", c='a\\"b').inc(2)
        samples = _parse_exposition(reg.render_prometheus())
        assert sorted(samples.values()) == [1.0, 2.0]


class TestHelpLines:
    def test_every_family_announces_help_then_type(self):
        reg = MetricsRegistry()
        reg.counter("wal_appends_total").inc()
        reg.gauge("wal_lag_bytes").set(5)
        reg.histogram("wal_append_seconds").observe(0.001)
        lines = reg.render_prometheus().splitlines()
        for family in ("wal_appends_total", "wal_lag_bytes", "wal_append_seconds"):
            help_idx = lines.index(
                f"# HELP {family} {obs.describe_metric(family)}"
            )
            assert lines[help_idx + 1].startswith(f"# TYPE {family} ")

    def test_help_emitted_once_per_family_across_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", status="200").inc()
        reg.counter("reqs_total", status="404").inc()
        text = reg.render_prometheus()
        assert text.count("# HELP reqs_total") == 1

    def test_described_families_use_the_registry_text(self):
        from repro.obs import METRIC_DESCRIPTIONS

        reg = MetricsRegistry()
        reg.counter("retry_exhausted_total").inc()
        text = reg.render_prometheus()
        expected = METRIC_DESCRIPTIONS["retry_exhausted_total"]
        assert f"# HELP retry_exhausted_total {expected}" in text

    def test_unknown_family_gets_fallback_help(self):
        reg = MetricsRegistry()
        reg.counter("adhoc_things_total").inc()
        assert "# HELP adhoc_things_total Metric adhoc_things_total." in (
            reg.render_prometheus()
        )

    @pytest.mark.parametrize("hostile", [
        "line one\nline two", "trailing\\", "back\\slash\nand newline",
    ])
    def test_hostile_help_text_cannot_inject_lines(self, hostile, monkeypatch):
        from repro.obs import metrics as metrics_mod

        monkeypatch.setitem(
            metrics_mod.METRIC_DESCRIPTIONS, "hostile_total", hostile
        )
        reg = MetricsRegistry()
        reg.counter("hostile_total").inc(7)
        lines = reg.render_prometheus().splitlines()
        help_lines = [l for l in lines if l.startswith("# HELP hostile_total")]
        # the description stayed on one HELP line, escaped
        assert len(help_lines) == 1
        assert "\n" not in help_lines[0]
        assert help_lines[0] == (
            "# HELP hostile_total "
            + hostile.replace("\\", "\\\\").replace("\n", "\\n")
        )
        # and every non-comment line still parses as a sample
        for line in lines:
            if line and not line.startswith("#"):
                assert SAMPLE_LINE.match(line), line

    def test_help_text_does_not_escape_quotes(self, monkeypatch):
        """HELP text is unquoted: per the spec only backslash and
        newline are escaped, unlike label values."""
        from repro.obs import metrics as metrics_mod

        monkeypatch.setitem(
            metrics_mod.METRIC_DESCRIPTIONS, "quoted_total", 'has "quotes"'
        )
        reg = MetricsRegistry()
        reg.counter("quoted_total").inc()
        assert '# HELP quoted_total has "quotes"' in reg.render_prometheus()


class TestConcurrentScrapes:
    def test_counters_monotone_under_writer_threads(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def hammer(worker):
            while not stop.is_set():
                reg.counter("ops_total", worker=str(worker)).inc()
                reg.histogram("op_seconds", worker=str(worker)).observe(0.001)

        threads = [
            threading.Thread(target=hammer, args=(i,), daemon=True)
            for i in range(4)
        ]
        for t in threads:
            t.start()
        try:
            last = {}
            for __ in range(50):
                samples = _parse_exposition(reg.render_prometheus())
                for key, value in samples.items():
                    if key.startswith(("ops_total", "op_seconds_count",
                                       "op_seconds_bucket")):
                        assert value >= last.get(key, 0.0), key
                        last[key] = value
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert any(k.startswith("ops_total") for k in last)

    def test_rest_metrics_well_formed_under_parallel_query_load(self, obs_on):
        """Scrape GET /metrics while cluster searches run on several
        client threads."""
        from repro.distributed import MilvusCluster

        data = sift_like(200, dim=8, seed=60)
        queries = random_queries(data, 4, seed=61)
        cluster = MilvusCluster(2, dim=8, index_type="FLAT")
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()

        router = RestRouter()
        stop = threading.Event()
        errors = []

        def query_load():
            try:
                while not stop.is_set():
                    cluster.search(queries, 3)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        clients = [threading.Thread(target=query_load, daemon=True)
                   for __ in range(3)]
        for client in clients:
            client.start()
        try:
            last_total = 0.0
            # scrape until a few searches have landed (bounded retries)
            for __ in range(200):
                resp = router.handle("GET", "/metrics")
                assert resp.ok
                text = resp.body["text"]
                for line in text.splitlines():
                    if line and not line.startswith("#"):
                        assert SAMPLE_LINE.match(line), line
                samples = _parse_exposition(text)
                total = sum(
                    v for k, v in samples.items()
                    if k.startswith("cluster_searches_total")
                )
                assert total >= last_total
                last_total = total
                if last_total >= 3:
                    break
                time.sleep(0.005)
        finally:
            stop.set()
            for client in clients:
                client.join()
        assert not errors, errors
        assert last_total > 0
