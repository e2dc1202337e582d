"""Tests for the tuning service: schema, scheduler, job layer, daemon.

The layering contract under test:

* **schema** — every spelling of the same problem digests identically;
  ``from_dict`` is tolerant; the digest changes when the answer could;
* **scheduler** — FairQueue round-robin, InflightTable coalescing,
  BudgetLedger accounting, idempotent Scheduler shutdown;
* **jobs** — identical in-flight requests share one engine run, repeats
  are answered from memory or the persistent result store without
  re-evaluation, the event stream replays exactly what the trace file
  records, and the global evaluation ceiling refuses fresh work;
* **daemon** — the HTTP transport adds nothing: answers through
  ``repro serve`` are bit-identical (history digest and all) to the
  in-process API, budget exhaustion maps to 429, and ``/v1/compile``
  matches the local differential-fuzzer digest.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Context
from repro.search import TuneConfig, TuningSession, read_trace
from repro.search.scheduler import (BudgetLedger, FairQueue, InflightTable,
                                    Scheduler)
from repro.service import (BudgetExhaustedError, JobManager, ServeResultStore,
                           TuneRequest, TuneResponse, history_digest)
from repro.service.daemon import start_server
from repro.timing import MAX_N
from repro.client import (LocalClient, ServeClient, ServiceError,
                          make_client)

N = 4000
EVALS = 40


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


def _request(**kw):
    kw.setdefault("kernel", "dscal")
    kw.setdefault("machine", "p4e")
    kw.setdefault("context", "out-of-cache")
    kw.setdefault("n", N)
    kw.setdefault("budget", EVALS)
    kw.setdefault("test", False)
    return TuneRequest(**kw)


# ---------------------------------------------------------------------------
# schema: canonicalization, digests, tolerant parsing

class TestTuneRequestSchema:
    def test_spellings_digest_identically(self):
        a = _request(machine="p4e", context="out-of-cache")
        b = _request(machine="P4E", context="oc")
        assert a.digest() == b.digest()
        assert a.canonical() == b.canonical()

    def test_default_n_matches_paper(self):
        from repro.timing.timer import paper_n
        r = TuneRequest(kernel="ddot", context="in-l2")
        assert r.n == paper_n(Context.IN_L2)
        assert r.context == Context.IN_L2.value

    def test_legacy_payload_digest_and_defaults_unchanged(self):
        # the exact field set a pre-tiling client sends: it must parse,
        # canonicalize and digest exactly like a native construction
        legacy = {"schema": 1, "kernel": "dscal", "machine": "P4E",
                  "context": "oc", "n": N, "strategy": "line",
                  "seed": 0, "budget": EVALS, "test": False}
        assert TuneRequest.from_dict(legacy).digest() == _request().digest()
        # vector kernels keep the paper's default N (old digests stable)
        from repro.timing.timer import paper_n
        assert TuneRequest(kernel="ddot").n == \
            paper_n(Context.OUT_OF_CACHE)
        # cubic nest kernels default to matrix orders instead
        assert TuneRequest(kernel="dgemm").n == 512
        assert TuneRequest(kernel="dgemm", context="in-l2").n == 160

    def test_answer_shaping_fields_change_digest(self):
        base = _request()
        assert _request(seed=1).digest() != base.digest()
        assert _request(budget=EVALS + 1).digest() != base.digest()
        assert _request(kernel="ddot").digest() != base.digest()

    def test_from_dict_tolerates_unknown_keys_and_alias(self):
        r = TuneRequest.from_dict({"schema": 1, "kernel": "dscal",
                                   "max_evals": 77, "future_knob": True})
        assert r.budget == 77
        with pytest.raises(ValueError):
            TuneRequest.from_dict({"schema": 99, "kernel": "dscal"})
        with pytest.raises(ValueError):
            TuneRequest.from_dict({"schema": 1})   # no kernel

    def test_unknown_kernel_and_context_refused(self):
        with pytest.raises(ValueError):
            TuneRequest(kernel="nope")
        with pytest.raises(ValueError):
            _request(context="in-l9")

    def test_timeout_is_not_part_of_the_request(self):
        """The retired per-evaluation ``timeout`` is an unknown key like
        any other: it parses, and it digests like the same request sent
        without it."""
        assert "timeout" not in _request().canonical()
        old = dict(_request().to_dict(), timeout=0.004)
        assert TuneRequest.from_dict(old).digest() == _request().digest()

    def test_problem_size_is_bounded(self):
        assert _request(n=MAX_N).n == MAX_N
        with pytest.raises(ValueError, match="n must be"):
            _request(n=MAX_N + 1)
        assert _request(n=8e4).n == 80000   # an integral JSON float

    @pytest.mark.parametrize("field, value", [
        ("strategy", 5), ("strategy", None), ("n", float("inf")),
        ("n", float("nan")), ("n", 4000.5), ("n", "4000"), ("n", True),
        ("seed", float("inf")), ("budget", float("inf")),
        ("budget", [EVALS]), ("observe", "no"), ("test", 1),
        ("min_gain", float("nan")), ("min_gain", "0.1"),
        ("min_gain", 10 ** 400), ("kernel", ["ddot"]), ("schema", 1e999)],
        ids=lambda v: str(v)[:12])
    def test_malformed_fields_are_refused(self, field, value):
        body = dict(_request().to_dict(), **{field: value})
        with pytest.raises((ValueError, TypeError)):
            TuneRequest.from_dict(body)

    def test_to_config_keeps_operational_knobs(self, tmp_path):
        base = TuneConfig(jobs=3, cache_dir=str(tmp_path / "c"))
        cfg = _request(budget=17, seed=4).to_config(base)
        assert cfg.jobs == 3 and cfg.cache_dir == str(tmp_path / "c")
        assert cfg.max_evals == 17 and cfg.seed == 4
        assert cfg.run_tester is False

    def test_response_roundtrip(self):
        resp = TuneResponse(digest="d" * 64, job_id="j-1", status="done",
                            result=None, stats={"evaluations": 3},
                            wall=1.5, served_from="store")
        back = TuneResponse.from_dict(json.loads(json.dumps(resp.to_dict())))
        assert back.digest == resp.digest and back.served_from == "store"
        assert back.stats == {"evaluations": 3}


# ---------------------------------------------------------------------------
# scheduler primitives

class TestSchedulerPrimitives:
    def test_fair_queue_round_robin(self):
        q = FairQueue()
        for item in ("a1", "a2", "a3"):
            q.push(item, client="a")
        q.push("b1", client="b")
        q.push("c1", client="c")
        assert [q.pop() for _ in range(5)] == ["a1", "b1", "c1", "a2", "a3"]
        assert q.pop() is None and len(q) == 0

    def test_fair_queue_single_client_is_fifo(self):
        q = FairQueue()
        for i in range(5):
            q.push(i)
        assert [q.pop() for _ in range(5)] == list(range(5))

    def test_fair_queue_remove(self):
        q = FairQueue()
        q.push("x", client="a")
        q.push("y", client="a")
        assert q.remove("x") and not q.remove("x")
        assert q.pop() == "y"

    def test_inflight_claims_coalesce(self):
        t = InflightTable()
        slot, created = t.claim("d1", lambda: object())
        again, created2 = t.claim("d1", lambda: object())
        assert created and not created2 and slot is again
        assert t.coalesced == 1 and len(t) == 1
        t.release("d1")
        assert t.get("d1") is None

    def test_budget_ledger(self):
        led = BudgetLedger(max_total_evals=10)
        led.charge("j-1", 6, cache_hits=2)
        assert not led.exhausted()
        led.charge("j-2", 4)
        assert led.exhausted()
        d = led.to_dict()
        assert d["total_evaluations"] == 10
        assert d["jobs"]["j-1"] == {"evaluations": 6, "cache_hits": 2}

    def test_scheduler_shutdown_idempotent(self):
        s = Scheduler(jobs=1)
        assert s.pool() is None          # serial: no pool to own
        s.shutdown()
        s.shutdown()                     # safe on error paths
        s.mark_broken()
        assert s.broken and s.pool() is None


# ---------------------------------------------------------------------------
# job layer: dedup, cache answers, events, budget

class TestJobManager:
    def test_repeat_is_served_from_memory(self):
        with JobManager(config=_config()) as m:
            first = m.run_inline(_request())
            evals = m.session.stats.evaluations
            second = m.run_inline(_request(machine="P4E", context="oc"))
        assert first.served_from is None and second.served_from == "memory"
        assert m.session.stats.evaluations == evals   # no second run
        assert second.result == first.result
        assert second.history_digest == first.history_digest
        assert m.launched == 1 and m.cache_answers == 1

    def test_store_answers_survive_a_restart(self, tmp_path):
        results = str(tmp_path / "results")
        with JobManager(config=_config(), results_dir=results) as m:
            first = m.run_inline(_request())
        # a different manager (daemon restart) pointed at the same store
        with JobManager(config=_config(), results_dir=results) as m2:
            again = m2.run_inline(_request())
            assert m2.session.stats.evaluations == 0
        assert again.served_from == "store"
        assert again.history_digest == first.history_digest
        assert again.tuned().params.key() == first.tuned().params.key()

    def test_concurrent_identical_requests_share_one_run(self):
        with JobManager(config=_config()) as m:
            tickets = []
            def submit():
                tickets.append(m.submit(_request()))
            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            hows = sorted(how for _, how in tickets)
            assert hows == ["coalesced", "coalesced", "coalesced", "new"]
            jobs = {job.id for job, _ in tickets}
            assert len(jobs) == 1                     # one shared job
            with LocalClient(manager=m) as client:
                response = client.wait(tickets[0][0].id)
        assert response.ok and m.launched == 1 and m.coalesced == 3

    def test_event_stream_replays_the_trace_file(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        with JobManager(config=_config(trace=str(trace))) as m:
            m.run_inline(_request())
            job = next(iter(m.jobs.values()))
            streamed = list(LocalClient(manager=m).events(job.id))
        on_disk = read_trace(str(trace))
        assert streamed == on_disk
        kinds = {e["event"] for e in streamed}
        assert {"job-start", "eval", "job-end"} <= kinds

    def test_budget_ceiling_refuses_fresh_work(self):
        with JobManager(config=_config(), max_total_evals=1) as m:
            first = m.run_inline(_request())
            assert first.ok
            # a repeat costs nothing and is still answered
            again = m.run_inline(_request())
            assert again.served_from == "memory"
            with pytest.raises(BudgetExhaustedError):
                m.submit(_request(kernel="dcopy"))

    def test_error_result_is_not_cached(self, monkeypatch):
        with JobManager(config=_config()) as m:
            def boom(*a, **kw):
                raise RuntimeError("engine fell over")
            monkeypatch.setattr(m.session, "tune", boom)
            with pytest.raises(ServiceError, match="engine fell over"):
                LocalClient(manager=m).tune(_request())
            assert m.errors == 1
            assert m._done_by_digest == {}

    def test_close_is_idempotent(self):
        m = JobManager(config=_config())
        m.start()
        m.close()
        m.close()
        assert m._dispatcher is None


# ---------------------------------------------------------------------------
# result store

class TestServeResultStore:
    def test_put_get_list(self, tmp_path):
        store = ServeResultStore(str(tmp_path))
        resp = TuneResponse(digest="ab" + "0" * 62, job_id="j-1",
                            status="done", stats={})
        store.put(resp.digest, resp)
        assert store.get(resp.digest)["digest"] == resp.digest
        assert store.get("ff" + "0" * 62) is None
        assert len(store) == 1 and len(store.list()) == 1

    def test_corrupt_entry_is_skipped(self, tmp_path):
        store = ServeResultStore(str(tmp_path))
        bad = store.dir.path("cd" + "0" * 62)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("NOT JSON")
        assert store.get("cd" + "0" * 62) is None
        assert store.list() == []


# ---------------------------------------------------------------------------
# the wire parser over arbitrary JSON: a request or a 4xx-class error

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_WIRE_FIELDS = ("schema", "kernel", "machine", "context", "n", "strategy",
                "seed", "budget", "max_evals", "observe", "verify_ir",
                "min_gain", "enable_block_fetch", "test", "timeout")


class TestWireFuzz:
    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(_WIRE_FIELDS), value=_json_values)
    def test_from_dict_raises_only_request_errors(self, field, value):
        body = {"schema": 1, "kernel": "dscal", "n": N, field: value}
        try:
            request = TuneRequest.from_dict(body)
        except (ValueError, KeyError, TypeError):
            return
        assert isinstance(request, TuneRequest)
        json.dumps(request.canonical(), allow_nan=False)
        assert 0 < request.n <= MAX_N


# ---------------------------------------------------------------------------
# daemon: HTTP transport over the same job layer

@pytest.fixture(scope="class")
def daemon():
    handle = start_server("127.0.0.1", 0, config=_config())
    with handle:
        yield handle


class TestDaemon:
    def test_daemon_matches_in_process_bit_identically(self, daemon):
        with TuningSession(_config()) as s:
            local = s.tune("dscal", "p4e", Context.OUT_OF_CACHE, N)
        client = ServeClient(daemon.url)
        response = client.tune(_request())
        served = response.tuned()
        assert response.history_digest == history_digest(local.search)
        assert served.params.key() == local.params.key()
        assert served.search.best_cycles == local.search.best_cycles
        assert served.search.history == local.search.history
        assert served.mflops == local.mflops

    def test_repeat_over_http_is_cache_answered(self, daemon):
        client = ServeClient(daemon.url)
        first = client.tune(_request())
        stats0 = client.stats()
        again = client.tune(_request())
        stats1 = client.stats()
        assert again.served_from in ("memory", "store")
        assert again.history_digest == first.history_digest
        assert stats1["cache_answers"] > stats0["cache_answers"]
        assert stats1["launched"] == stats0["launched"]

    def test_legacy_payload_replays_identically_over_http(self, daemon):
        # a pre-tiling wire payload must be answered bit-identically to
        # an in-process run of the same problem
        legacy = {"schema": 1, "kernel": "dscal", "machine": "p4e",
                  "context": "out-of-cache", "n": N, "strategy": "line",
                  "seed": 0, "budget": EVALS, "test": False}
        with TuningSession(_config()) as s:
            local = s.tune("dscal", "p4e", Context.OUT_OF_CACHE, N)
        client = ServeClient(daemon.url)
        response = client.tune(TuneRequest.from_dict(legacy))
        assert response.history_digest == history_digest(local.search)
        assert response.tuned().params.key() == local.params.key()

    def test_submit_ticket_and_event_replay(self, daemon):
        client = ServeClient(daemon.url)
        ticket = client.submit(_request())
        assert set(ticket) == {"job_id", "digest", "status", "how"}
        response = client.wait(ticket["job_id"], timeout=120)
        assert response.ok
        events = list(client.events(ticket["job_id"]))
        snap = client.job(ticket["job_id"])
        assert snap["state"] == "done"
        assert len(events) == snap["n_events"] > 0
        # replay from an offset returns exactly the tail
        tail = list(client.events(ticket["job_id"], start=len(events) - 2))
        assert tail == events[-2:]

    def test_healthz_and_stats_shape(self, daemon):
        client = ServeClient(daemon.url)
        health = client.healthz()
        assert health["ok"] is True
        stats = client.stats()
        for key in ("submitted", "launched", "deduped", "cache_answers",
                    "engine", "budget", "config"):
            assert key in stats

    def test_results_listing(self, daemon):
        client = ServeClient(daemon.url)
        client.tune(_request())
        results = client.results(limit=5)
        assert results and results[0]["digest"]

    #: bodies that once answered 500 (AttributeError, OverflowError) or
    #: were silently misread, plus the first oversize problem
    MALFORMED = (b'{"schema": 1}',
                 b'{"kernel": "ddot", "strategy": 5}',
                 b'{"kernel": "ddot", "strategy": null}',
                 b'{"kernel": "ddot", "n": Infinity}',
                 b'{"kernel": "ddot", "seed": 1e999}',
                 b'{"kernel": "ddot", "observe": "no"}',
                 b'{"kernel": "ddot", "n": %d}' % (MAX_N + 1))

    def test_bad_requests_are_400s(self, daemon):
        client = ServeClient(daemon.url)
        launched = client.stats()["launched"]
        for body in self.MALFORMED:
            req = urllib.request.Request(
                daemon.url + "/v1/tune", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=30)
            assert err.value.code == 400, body
        assert client.stats()["launched"] == launched
        with pytest.raises(ServiceError, match="404"):
            client.job("j-999999")
        with pytest.raises(ServiceError, match="404"):
            client._json("GET", "/v1/nope")

    def test_compile_matches_local_fuzzer_digest(self, daemon):
        from repro.fko import TransformParams
        from repro.qa.differ import compile_digest
        from repro.qa.sampler import FuzzSample
        client = ServeClient(daemon.url)
        # register_allocation off leaves raw VRegs in the printed IR —
        # the canonical dump must erase the global uid counter's offset
        params = TransformParams(sv=False, unroll=2, lc=False, ae=1,
                                 wnt=False, register_allocation="off")
        sample = FuzzSample(kernel="dscal", machine="p4e",
                            params=params, n=64)
        local = compile_digest(sample)
        remote = client.compile("dscal", "p4e", params.to_dict())
        assert remote["ok"]
        assert remote["ir_digest"] == local["ir_digest"]
        assert remote["applied"] == local["applied"]


class TestNoWallClockOutcome:
    def test_pool_daemon_matches_serial_in_process(self):
        """A ``jobs=2`` daemon and a ``jobs=1`` in-process session
        answer one request identically, even when an old client still
        sends the retired ``timeout`` (0.004 s is shorter than one
        evaluation at this N, so a wall-clock limit would have decided
        the answer)."""
        n, budget = 80000, 60
        with TuningSession(_config(max_evals=budget)) as s:
            local = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, n)
            assert s.stats.faults == 0
        body = {"schema": 1, "kernel": "ddot", "machine": "p4e",
                "context": "out-of-cache", "n": n, "budget": budget,
                "test": False, "timeout": 0.004}
        handle = start_server("127.0.0.1", 0, autostart=False,
                              config=_config(jobs=2, max_evals=budget))
        with handle:
            client = ServeClient(handle.url)
            t1 = client._json("POST", "/v1/tune", body)
            t2 = client.submit(TuneRequest.from_dict(
                {k: v for k, v in body.items() if k != "timeout"}))
            assert t1["how"] == "new" and t2["how"] == "coalesced"
            assert t1["job_id"] == t2["job_id"]
            handle.manager.start()
            served = client.wait(t1["job_id"], timeout=300)
        assert served.ok, served.error
        assert served.stats.get("faults", 0) == 0
        assert served.history_digest == history_digest(local.search)
        tuned = served.tuned()
        assert tuned.params.key() == local.params.key()
        assert tuned.search.best_cycles == local.search.best_cycles


class TestDaemonStaging:
    def test_staged_concurrent_dedup_over_http(self):
        """Two identical HTTP submissions while the dispatcher is
        parked must coalesce onto one job and one engine run."""
        handle = start_server("127.0.0.1", 0, config=_config(),
                              autostart=False)
        with handle:
            client = ServeClient(handle.url)
            t1 = client.submit(_request())
            t2 = client.submit(_request())
            assert t1["how"] == "new" and t2["how"] == "coalesced"
            assert t1["job_id"] == t2["job_id"]
            handle.manager.start()
            response = client.wait(t1["job_id"], timeout=120)
            assert response.ok
            stats = client.stats()
            assert stats["launched"] == 1 and stats["deduped"] == 1

    def test_budget_exhaustion_is_http_429(self):
        handle = start_server("127.0.0.1", 0, config=_config(),
                              max_total_evals=1)
        with handle:
            client = ServeClient(handle.url)
            assert client.tune(_request()).ok
            # cached repeat still answered after the ledger is spent
            assert client.tune(_request()).served_from is not None
            with pytest.raises(ServiceError, match="429"):
                client.submit(_request(kernel="dcopy"))


# ---------------------------------------------------------------------------
# client facade

class TestClientFacade:
    def test_make_client_picks_transport(self):
        local = make_client()
        assert isinstance(local, LocalClient)
        local.close()
        assert isinstance(make_client("http://127.0.0.1:1"), ServeClient)

    def test_facade_exports(self):
        import repro
        for name in ("TuneRequest", "TuneResponse", "history_digest",
                     "LocalClient", "ServeClient", "ServiceError",
                     "TuneClient", "make_client"):
            assert hasattr(repro, name)

    def test_local_client_matches_plain_session(self):
        with TuningSession(_config()) as s:
            local = s.tune("dscal", "p4e", Context.OUT_OF_CACHE, N)
        with make_client(config=_config()) as client:
            response = client.tune(_request())
        assert response.history_digest == history_digest(local.search)
        assert response.tuned().params.key() == local.params.key()

    def test_unreachable_daemon_is_a_service_error(self):
        client = ServeClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_tune_kwargs_shorthand(self):
        with make_client(config=_config()) as client:
            response = client.tune(kernel="dscal", n=N, budget=EVALS,
                                   test=False)
        assert response.ok
        with pytest.raises(TypeError):
            client.tune(_request(), kernel="dscal")


# ---------------------------------------------------------------------------
# canonical IR text (the compile-digest oracle's foundation)

class TestCanonicalText:
    def test_uid_offsets_do_not_change_the_canonical_dump(self):
        """Compiling the same point twice in one process advances the
        global VReg counter, so the plain dumps differ whenever VRegs
        survive (register allocation off) — the canonical dumps must
        not."""
        from repro.fko import FKO, TransformParams
        from repro.ir import canonical_function_text, format_function
        from repro.kernels import get_kernel
        from repro.machine import get_machine
        params = TransformParams(sv=False, unroll=2, lc=False, ae=1,
                                 wnt=False, register_allocation="off")
        hil = get_kernel("dscal").hil
        one = FKO(get_machine("p4e")).compile(hil, params)
        two = FKO(get_machine("p4e")).compile(hil, params)
        assert format_function(one.fn) != format_function(two.fn)
        assert (canonical_function_text(one.fn)
                == canonical_function_text(two.fn))

    def test_renumbering_keeps_distinct_registers_distinct(self):
        from repro.ir.printer import _VREG_TOKEN

        def canon(text):
            mapping = {}
            return _VREG_TOKEN.sub(
                lambda m: f"%{m.group(1)}."
                          f"{mapping.setdefault(m.group(2), len(mapping))}",
                text)

        assert canon("%x.17 %y.3 %x.17") == "%x.0 %y.1 %x.0"
        assert canon("%a.5 %a.9") == "%a.0 %a.1"
