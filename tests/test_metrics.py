"""Tests for the live-metrics + convergence-telemetry layer.

Covers the PR's contract surface:

* the metrics registry: labeled counters/gauges/histograms, inert when
  disabled (same contract as the obs collector), reset semantics, and
  a valid Prometheus text exposition;
* the instrumented engine/daemon: a tuning run populates the expected
  series, and metrics are provably non-perturbing — history digests at
  jobs=1 and jobs=4 are bit-identical with the registry on or off;
* tiling observability: an observed Level-3 compile records
  ``tile-discover``/``tile-apply`` spans with ``tile.*`` detail, the
  TILE report section golden-renders, and the Perfetto export of a
  tiled trace stays balanced;
* streaming traces: ``TraceStream`` yields what ``read_trace``
  materializes, counts malformed lines, and is multi-pass safe;
* anytime curves: per-(job, strategy) collection from curve events and
  derived eval steps, cross-job aggregation, CLI artifacts;
* ``repro perf diff``: metric classification, deterministic gating,
  and the CLI exiting nonzero on an injected regression;
* ``GET /v1/metrics``: Prometheus text that parses, with nonzero
  counters after a served tune.
"""

import dataclasses
import hashlib
import json
import pathlib
import urllib.request

import pytest

from repro import cli, obs
from repro.fko import FKO
from repro.kernels import get_kernel
from repro.machine import Context
from repro.obs import (Collector, aggregate_curves, collect_curves,
                       curves_document, diff_metrics, export_perfetto,
                       load_artifact, render_curves_markdown, render_diff,
                       render_report)
from repro.obs import metrics as m
from repro.obs.perfdiff import classify_metric, flatten_numeric
from repro.search import (TraceStream, TuneConfig, TuningSession,
                          read_trace, summarize_trace)
from repro.search.trace import TIMING_PATHS

GOLDEN = pathlib.Path(__file__).parent / "golden"
TILE_FIXTURE = GOLDEN / "tile_trace_fixture.jsonl"
N = 4000
EVALS = 24


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with the process registry off/empty
    (the registry is process-global by design)."""
    m.disable()
    m.reset()
    yield
    m.disable()
    m.reset()


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


def _get(entries, **labels):
    """The snapshot entry of one labeled series."""
    for e in entries:
        if e["labels"] == labels:
            return e
    raise AssertionError(f"no series with labels {labels} in {entries}")


# ---------------------------------------------------------------------------
# the registry core

class TestMetricsRegistry:
    def test_inert_when_disabled(self):
        assert not m.enabled()
        m.inc("repro_evaluations_total", status="ok")
        m.set_gauge("repro_queue_depth", 9)
        m.observe("repro_eval_wall_seconds", 0.5)
        snap = m.snapshot()
        assert not snap["counters"] and not snap["gauges"] \
            and not snap["histograms"]

    def test_counters_accumulate_per_label_set(self):
        m.enable()
        m.inc("repro_evaluations_total", status="ok")
        m.inc("repro_evaluations_total", 2, status="ok")
        m.inc("repro_evaluations_total", status="fault")
        series = m.snapshot()["counters"]["repro_evaluations_total"]
        assert _get(series, status="ok")["value"] == 3
        assert _get(series, status="fault")["value"] == 1

    def test_gauge_overwrites(self):
        m.enable()
        m.set_gauge("repro_queue_depth", 4)
        m.set_gauge("repro_queue_depth", 1)
        series = m.snapshot()["gauges"]["repro_queue_depth"]
        assert _get(series)["value"] == 1

    def test_histogram_sum_count_and_cumulative_buckets(self):
        m.enable()
        for v in (0.0001, 0.01, 5.0):
            m.observe("repro_eval_wall_seconds", v)
        text = m.render_prometheus()
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_eval_wall_seconds")]
        count = next(l for l in lines
                     if l.startswith("repro_eval_wall_seconds_count"))
        total = next(l for l in lines
                     if l.startswith("repro_eval_wall_seconds_sum"))
        assert float(count.rsplit(" ", 1)[1]) == 3
        assert float(total.rsplit(" ", 1)[1]) == pytest.approx(5.0101)
        buckets = [float(l.rsplit(" ", 1)[1]) for l in lines
                   if "_bucket" in l]
        assert buckets == sorted(buckets)          # cumulative
        assert buckets[-1] == 3                    # le="+Inf" sees all
        assert any('le="+Inf"' in l for l in lines)
        # the snapshot view agrees
        hist = _get(m.snapshot()["histograms"]["repro_eval_wall_seconds"])
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(5.0101)
        assert hist["buckets"][-1] == {"le": "+Inf", "n": 3}

    def test_prometheus_text_shape(self):
        m.enable()
        m.inc("repro_requests_total", how="new")
        text = m.render_prometheus()
        assert "# HELP repro_requests_total" in text
        assert "# TYPE repro_requests_total counter" in text
        # integral values render without a trailing .0
        assert 'repro_requests_total{how="new"} 1\n' in text

    def test_label_value_escaping(self):
        m.enable()
        m.inc("repro_client_requests_total", client='a"b\\c\nd')
        text = m.render_prometheus()
        assert 'client="a\\"b\\\\c\\nd"' in text

    def test_reset_clears_series_keeps_registration(self):
        m.enable()
        m.inc("repro_compiles_total")
        m.reset()
        assert m.enabled()   # reset does not flip the enable switch
        assert "repro_compiles_total" not in m.snapshot()["counters"]
        # the described help text survives a reset
        m.inc("repro_compiles_total")
        assert "# HELP repro_compiles_total Daemon one-shot" \
            in m.render_prometheus()

    def test_snapshot_is_json_serializable(self):
        m.enable()
        m.observe("repro_eval_wall_seconds", 0.25)
        m.set_gauge("repro_evals_per_sec", 123.4, scope="batch")
        json.dumps(m.snapshot())


# ---------------------------------------------------------------------------
# engine instrumentation

class TestEngineMetrics:
    def test_tune_populates_series(self):
        m.enable()
        with TuningSession(_config()) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        snap = m.snapshot()
        evals = _get(snap["counters"]["repro_evaluations_total"],
                     status="ok")
        assert evals["value"] > 0
        paths = snap["counters"]["repro_eval_path_total"]
        assert {e["labels"]["path"] for e in paths} <= set(TIMING_PATHS)
        assert sum(e["value"] for e in paths) == evals["value"]
        wall = _get(snap["histograms"]["repro_eval_wall_seconds"])
        assert wall["count"] > 0 and wall["sum"] > 0

    def test_batch_run_sets_throughput_gauge(self):
        from repro.search.engine import TuningJob
        m.enable()
        with TuningSession(_config()) as s:
            s.run([TuningJob("ddot", "p4e", Context.OUT_OF_CACHE, N)])
        snap = m.snapshot()
        assert _get(snap["gauges"]["repro_evals_per_sec"],
                    scope="batch")["value"] > 0

    def test_cache_hits_counted(self, tmp_path):
        m.enable()
        cache = str(tmp_path / "cache")
        with TuningSession(_config(cache_dir=cache)) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        with TuningSession(_config(cache_dir=cache)) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        snap = m.snapshot()
        assert _get(snap["counters"]["repro_eval_cache_hits_total"]
                    )["value"] > 0


# ---------------------------------------------------------------------------
# metrics must not perturb anything, serial or fanned out

def _digest(path):
    """History digest of a trace: every event minus wall-clock noise."""
    h = hashlib.sha256()
    for e in read_trace(str(path)):
        slim = {k: v for k, v in e.items() if k not in ("t", "wall")}
        h.update(json.dumps(slim, sort_keys=True).encode())
    return h.hexdigest()


class TestMetricsNonPerturbation:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_history_digest_identical_on_off(self, tmp_path, jobs):
        off, on = tmp_path / "off.jsonl", tmp_path / "on.jsonl"
        with TuningSession(_config(jobs=jobs, trace=str(off))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        m.enable()
        with TuningSession(_config(jobs=jobs, trace=str(on))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        m.disable()
        assert _digest(off) == _digest(on)

    def test_search_results_identical_on_off(self):
        with TuningSession(_config()) as s:
            off = s.tune("dasum", "p4e", Context.OUT_OF_CACHE, N)
        m.enable()
        with TuningSession(_config()) as s:
            on = s.tune("dasum", "p4e", Context.OUT_OF_CACHE, N)
        assert on.params.key() == off.params.key()
        assert on.search.best_cycles == off.search.best_cycles
        assert on.search.history == off.search.history


# ---------------------------------------------------------------------------
# curve events (schema v2 addition)

class TestCurveEvents:
    def test_one_curve_event_per_round(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TuningSession(_config(trace=str(path))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        events = read_trace(str(path))
        curves = [e for e in events if e["event"] == "curve"]
        rounds = [e for e in events if e["event"] == "round"]
        assert curves and len(curves) == len(rounds)
        for c in curves:
            assert c["strategy"] == "line" and c["seed"] == 0
            assert isinstance(c["improved"], bool)
            assert c["best_cycles"] > 0
        # best-so-far is monotonically non-increasing
        bests = [c["best_cycles"] for c in curves]
        assert bests == sorted(bests, reverse=True)
        # evaluations charged matches the searcher's accounting
        assert curves[-1]["evaluations"] == rounds[-1]["evaluations"]


# ---------------------------------------------------------------------------
# tiling observability

class TestTilingObservability:
    def _tiled_params(self, fko, hil):
        return dataclasses.replace(fko.defaults(hil),
                                   ext={"tile:i": 16, "tile:k": 8})

    def test_observed_compile_records_tile_spans(self, p4e):
        fko = FKO(p4e)
        spec = get_kernel("dgemm")
        col = Collector()
        with obs.use(col):
            fko.compile(spec.hil, self._tiled_params(fko, spec.hil))
        names = [p["pass"] for p in col.passes]
        assert "tile-discover" in names and "tile-apply" in names
        disc = next(p for p in col.passes if p["pass"] == "tile-discover")
        assert disc["applied"]
        assert disc["detail"]["tile.nest_loops"] == 3
        assert disc["detail"]["tile.nest_arrays"] == 3
        appl = next(p for p in col.passes if p["pass"] == "tile-apply")
        assert appl["detail"]["tile.loops_tiled"] == 2
        assert appl["detail"]["tile.lines_delta"] > 0

    def test_observed_tiling_is_non_perturbing(self, p4e):
        from repro.ir import format_function
        fko = FKO(p4e)
        spec = get_kernel("dgemm")
        params = self._tiled_params(fko, spec.hil)
        plain = fko.compile(spec.hil, params)
        with obs.use(Collector()):
            observed = fko.compile(spec.hil, params)
        assert format_function(plain.fn) == format_function(observed.fn)

    def test_metrics_mode_times_cold_tiling(self):
        from repro.hil.tiling import nest_info, tiled_source
        spec = get_kernel("dgemm")
        # a never-seen source string forces the memo tables cold
        src = spec.hil + "\n// metrics-cold-probe\n"
        m.enable()
        nest_info(src)
        tiled_source(src, {"i": 16})
        hists = m.snapshot()["histograms"]["repro_tile_wall_seconds"]
        assert _get(hists, stage="discover")["count"] == 1
        assert _get(hists, stage="apply")["count"] == 1
        # warm lookups stay memoized: counts do not grow
        nest_info(src)
        tiled_source(src, {"i": 16})
        again = m.snapshot()["histograms"]["repro_tile_wall_seconds"]
        assert _get(again, stage="discover")["count"] == 1
        assert _get(again, stage="apply")["count"] == 1

    def test_tile_report_golden(self):
        rendered = render_report(read_trace(str(TILE_FIXTURE)),
                                 title="tile fixture report")
        assert rendered == (GOLDEN / "tile_report_golden.md").read_text()

    def test_untiled_trace_has_no_tile_section(self):
        fixture = GOLDEN / "obs_trace_fixture.jsonl"
        text = render_report(read_trace(str(fixture)))
        assert "TILE phase" not in text

    def test_perfetto_export_of_tiled_trace_balanced(self):
        from .test_obs import _check_spans_balanced
        doc = export_perfetto(read_trace(str(TILE_FIXTURE)))
        json.dumps(doc)
        _check_spans_balanced(doc)
        names = {e["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "B"}
        assert {"tile-discover", "tile-apply"} <= names

    def test_real_tiled_tune_exports_cleanly(self, tmp_path):
        from .test_obs import _check_spans_balanced
        path = tmp_path / "t.jsonl"
        with TuningSession(_config(max_evals=60, observe=True,
                                   trace=str(path))) as s:
            s.tune("dgemm", "p4e", Context.OUT_OF_CACHE, 96)
        events = read_trace(str(path))
        passes = {e["pass"] for e in events if e["event"] == "pass"}
        assert {"tile-discover", "tile-apply"} <= passes
        doc = export_perfetto(events)
        json.dumps(doc)
        _check_spans_balanced(doc)
        assert "TILE phase" in render_report(events)


# ---------------------------------------------------------------------------
# streaming trace reads

class TestTraceStream:
    def test_stream_yields_what_read_trace_materializes(self):
        stream = list(TraceStream(str(TILE_FIXTURE)))
        assert stream == list(read_trace(str(TILE_FIXTURE)))

    def test_malformed_counted_and_multi_pass_safe(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 1.0, "event": "eval"}\n'
                        "{broken\n"
                        '{"t": 2.0, "event": "batch-end"}\n')
        stream = TraceStream(str(path))
        assert len(list(stream)) == 2
        assert stream.malformed == 1
        # a second pass re-reads the file and does NOT double the count
        assert len(list(stream)) == 2
        assert stream.malformed == 1

    def test_summarize_streams_without_materializing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TuningSession(_config(trace=str(path))) as s:
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        streamed = summarize_trace(TraceStream(str(path)))
        materialized = summarize_trace(read_trace(str(path)))
        assert streamed == materialized

    def test_perf_diff_accepts_trace_artifacts(self):
        summary = load_artifact(str(TILE_FIXTURE))
        assert summary["evaluations"] == 3
        report = diff_metrics(summary, summary)
        assert not report["regressions"]


# ---------------------------------------------------------------------------
# anytime curves

class TestCurves:
    def test_collect_from_fixture(self):
        curves = collect_curves(TraceStream(str(TILE_FIXTURE)))
        [(key, entry)] = curves.items()
        assert key == "dgemm:p4e:out-of-cache:256@line"
        assert entry["evaluations"] == 3
        assert entry["best_cycles"] == 7200000.0
        assert entry["tells"] == [[1, 9600000.0], [2, 7200000.0],
                                  [3, 7200000.0]]
        assert entry["points"] == [[1, 9600000.0], [2, 7200000.0]]

    def test_repeat_pairs_get_dedupe_suffix(self):
        events = []
        for _ in range(2):
            events += [{"event": "job-start", "job": "j", "strategy": "line",
                        "seed": 0},
                       {"event": "eval", "job": "j", "cycles": 10.0},
                       {"event": "job-end", "job": "j"}]
        curves = collect_curves(events)
        assert list(curves) == ["j@line", "j@line#2"]

    def test_aggregate_ratio_of_best_known(self):
        events = [
            {"event": "job-start", "job": "j", "strategy": "a", "seed": 0},
            {"event": "eval", "job": "j", "cycles": 200.0},
            {"event": "eval", "job": "j", "cycles": 100.0},
            {"event": "job-end", "job": "j"},
            {"event": "job-start", "job": "j", "strategy": "b", "seed": 0},
            {"event": "eval", "job": "j", "cycles": 400.0},
            {"event": "eval", "job": "j", "cycles": 400.0},
            {"event": "job-end", "job": "j"},
        ]
        agg = aggregate_curves(collect_curves(events))
        assert agg["jobs"] == 1
        assert agg["checkpoints"][-1] == 2
        # best known is 100: strategy a converges to 1.0, b sits at 0.25
        assert agg["strategies"]["a"]["ratio_of_best"][2] == 1.0
        assert agg["strategies"]["b"]["ratio_of_best"][2] == 0.25

    def test_markdown_and_document(self):
        curves = collect_curves(TraceStream(str(TILE_FIXTURE)))
        text = render_curves_markdown(curves)
        assert "| Strategy |" in text
        assert "dgemm:p4e:out-of-cache:256@line" in text
        doc = curves_document(curves)
        assert doc["version"] == 1
        json.dumps(doc)

    def test_cli_curves_writes_artifacts(self, tmp_path, capsys):
        js, md = tmp_path / "c.json", tmp_path / "c.md"
        rc = cli.main(["curves", str(TILE_FIXTURE),
                       "--json", str(js), "-o", str(md)])
        assert rc == 0
        doc = json.loads(js.read_text())
        assert doc["aggregate"]["strategies"]["line"]
        assert "Anytime performance" in md.read_text()

    def test_cli_curves_empty_trace_reports_no_data_and_exits_zero(
            self, tmp_path, capsys):
        # an empty (or curve-event-free) trace is a report, not a
        # crash: "no data" on stdout and a zero exit, so trace-cleanup
        # scripts and CI globs over partial runs never false-fail
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cli.main(["curves", str(path)]) == 0
        assert "no convergence data" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# perf diff

class TestPerfDiff:
    def test_flatten_skips_booleans_indexes_lists(self):
        flat = flatten_numeric({"a": {"b": 2}, "ok": True,
                                "xs": [1.5, {"c": 3}]})
        assert flat == {"a.b": 2.0, "xs.0": 1.5, "xs.1.c": 3.0}

    def test_classification_longest_fragment_wins(self):
        assert classify_metric("summary.cache_hit_rate") == "higher"
        assert classify_metric("grid.x.best_cycles") == "lower"
        assert classify_metric("serial_evals_per_sec") == "higher"
        assert classify_metric("budget") is None

    def test_self_diff_is_clean(self):
        doc = {"best_cycles": 100.0, "wall_s": 2.0}
        report = diff_metrics(doc, doc)
        assert not report["regressions"]
        assert all(r["delta"] == 0 for r in report["rows"])

    def test_gated_regression_detected(self):
        old = {"grid": {"p": {"best_cycles": 1000.0}}, "wall_s": 5.0}
        new = {"grid": {"p": {"best_cycles": 1100.0}}, "wall_s": 50.0}
        report = diff_metrics(old, new)
        [reg] = report["regressions"]
        assert reg["key"] == "grid.p.best_cycles"
        # wall moved 10x but wall is runner noise — reported, not gated
        assert all(r["key"] != "wall_s" for r in report["regressions"])
        assert "REGRESSIONS" in render_diff(report)

    def test_improvement_and_threshold_pass(self):
        old = {"best_cycles": 1000.0, "mismatches": 0}
        new = {"best_cycles": 990.0, "mismatches": 0}
        assert not diff_metrics(old, new)["regressions"]
        # a worsening under the threshold also passes
        new = {"best_cycles": 1030.0, "mismatches": 0}
        assert not diff_metrics(old, new, threshold=0.05)["regressions"]

    def test_zero_floor_regresses_on_any_worsening(self):
        report = diff_metrics({"mismatches": 0}, {"mismatches": 1})
        assert report["regressions"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({"grid": {"p": {"best_cycles": 100.0}}}))
        new.write_text(json.dumps({"grid": {"p": {"best_cycles": 100.0}}}))
        assert cli.main(["perf", "diff", str(old), str(new)]) == 0
        new.write_text(json.dumps({"grid": {"p": {"best_cycles": 120.0}}}))
        js = tmp_path / "report.json"
        assert cli.main(["perf", "diff", str(old), str(new),
                         "--json", str(js)]) == 1
        assert json.loads(js.read_text())["regressions"]


# ---------------------------------------------------------------------------
# the daemon endpoint

class TestServeMetrics:
    def test_v1_metrics_prometheus_and_json(self):
        from repro.client import ServeClient
        from repro.service import TuneRequest
        from repro.service.daemon import start_server
        with start_server(port=0, config=_config()) as handle:
            client = ServeClient(handle.url)
            ticket = client.submit(TuneRequest(
                kernel="ddot", machine="p4e", context="out-of-cache",
                n=N, budget=EVALS, test=False))
            client.wait(ticket["job_id"], timeout=120)
            text = urllib.request.urlopen(
                handle.url + "/v1/metrics").read().decode()
            snap = json.loads(urllib.request.urlopen(
                handle.url + "/v1/metrics?format=json").read().decode())
        families = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                families[name] = kind
        assert families["repro_evaluations_total"] == "counter"
        assert families["repro_eval_wall_seconds"] == "histogram"
        assert families["repro_queue_depth"] == "gauge"
        for line in text.splitlines():   # every sample line parses
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part.startswith("repro_")
        assert 'repro_requests_total{how="new"} 1' in text
        assert _get(snap["counters"]["repro_jobs_completed_total"]
                    )["value"] == 1
        assert _get(snap["counters"]["repro_evaluations_total"],
                    status="ok")["value"] > 0

    def test_metrics_flag_off_keeps_registry_dark(self):
        from repro.service.daemon import start_server
        with start_server(port=0, config=_config(),
                          metrics=False) as handle:
            assert not m.enabled()
            text = urllib.request.urlopen(
                handle.url + "/v1/metrics").read().decode()
        # still a valid (empty) exposition: no samples recorded
        assert not [l for l in text.splitlines()
                    if l and not l.startswith("#")]

    def test_cli_metrics_command(self, capsys):
        from repro.client import ServeClient
        from repro.service import TuneRequest
        from repro.service.daemon import start_server
        with start_server(port=0, config=_config()) as handle:
            client = ServeClient(handle.url)
            ticket = client.submit(TuneRequest(
                kernel="dscal", machine="p4e", context="out-of-cache",
                n=N, budget=EVALS, test=False))
            client.wait(ticket["job_id"], timeout=120)
            rc = cli.main(["metrics", "--serve-url", handle.url])
            assert rc == 0
            out = capsys.readouterr().out
            assert "# TYPE repro_requests_total counter" in out
            rc = cli.main(["metrics", "--serve-url", handle.url, "--json"])
            assert rc == 0
            json.loads(capsys.readouterr().out)

    def test_cli_metrics_unreachable_errors(self):
        with pytest.raises(SystemExit):
            cli.main(["metrics", "--serve-url", "http://127.0.0.1:9"])
