"""Fault injection for the persistent stores (``repro.store``).

Every JSON file the tuner keeps — evaluation cache, serve result store
(and the warm-start lookup that reads it), batch checkpoint,
experiment result rows — goes through one atomic writer and one
tolerant reader.  These tests break the files the ways a real run
does: truncated or foreign bytes, valid JSON of the wrong shape, a
writer that crashed before its rename, a writer whose serializer
raised, and several processes writing one entry while another reads.
Each must read as a miss (recompute) in every store, never raise.
"""

import json
import multiprocessing
import os

import pytest

from repro import __version__
from repro.experiments.store import ResultStore
from repro.fko import TransformParams
from repro.machine import Context, canon_machine, get_machine, pentium4e
from repro.search import (EvalCache, TuneConfig, TuningSession,
                          load_entries, lookup_warm_start, write_warm_entry)
from repro.service import ServeResultStore, TuneRequest, TuneResponse
from repro.store import DigestDir, read_json, write_json

DIGEST = "ab" * 32

#: bytes a crash, a disk error or a foreign writer can leave behind
CORRUPT = {
    "truncated": b'{"cycles": 12.5, "kernel": "dd',
    "non-utf8": b'{"cycles": \xff\xfe 12.5}',
    "non-dict": b"[12.5]",
    "string": b'"12.5"',
    "empty": b"",
    "too-deep": b"[" * 100000,
}


def _plant(root, content: bytes, digest: str = DIGEST):
    """Write raw bytes where the digest layout keeps ``digest``."""
    path = root / digest[:2] / f"{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(content)
    return path


# ---------------------------------------------------------------------------
# the read rule: anything but a complete JSON object is a miss

@pytest.mark.parametrize("content", list(CORRUPT.values()),
                         ids=list(CORRUPT))
class TestCorruptFileIsAMiss:
    def test_read_json(self, tmp_path, content):
        assert read_json(_plant(tmp_path, content)) is None

    def test_eval_cache(self, tmp_path, content):
        _plant(tmp_path, content)
        assert EvalCache(str(tmp_path)).get(DIGEST) is None

    def test_serve_store_get_and_list(self, tmp_path, content):
        _plant(tmp_path, content)
        store = ServeResultStore(str(tmp_path))
        assert store.get(DIGEST) is None
        assert store.list() == []

    def test_warm_start_lookup(self, tmp_path, content):
        _plant(tmp_path, content)
        assert load_entries(tmp_path) == []
        assert lookup_warm_start(tmp_path, "ddot", "p4e", "oc") == ([], "")

    def test_checkpoint(self, tmp_path, content):
        state = tmp_path / "batch.json"
        state.write_bytes(content)
        with TuningSession(TuneConfig(resume=str(state))) as session:
            assert session._load_checkpoint() == {}

    def test_result_store_row(self, tmp_path, content):
        store = ResultStore(quick=True, cache_dir=str(tmp_path))
        key = ("p4e", Context.IN_L2, "sscal", "FKO")
        store._disk_path(key).write_bytes(content)
        assert store._load_disk(key) is None


def test_serve_store_lists_newest_first_and_skips_unreadable(tmp_path):
    store = ServeResultStore(str(tmp_path))
    digests = ["cd" * 32, "ef" * 32, DIGEST]
    for age, digest in enumerate(digests):
        store.put(digest, TuneResponse(digest=digest, job_id="j",
                                       status="done"))
        os.utime(store.dir.path(digest), (1000 - age, 1000 - age))
    newest = _plant(tmp_path, CORRUPT["truncated"], "01" * 32)
    os.utime(newest, (2000, 2000))
    assert [r["digest"] for r in store.list()] == digests
    assert [r["digest"] for r in store.list(limit=3)] == digests[:2]
    assert len(store) == 4


def test_missing_file_is_a_miss(tmp_path):
    assert read_json(tmp_path / "absent.json") is None
    assert read_json(tmp_path) is None   # a directory is unreadable
    assert DigestDir(tmp_path / "absent").get(DIGEST) is None
    assert len(DigestDir(tmp_path / "absent")) == 0


# (NaN and the infinities themselves: tests/test_engine.py)
@pytest.mark.parametrize("cycles", [b"1e999", b'"nan"', b"null", b'"x"'])
def test_eval_cache_nonfinite_or_nonnumeric_cycles_is_a_miss(tmp_path,
                                                              cycles):
    _plant(tmp_path, b'{"kernel": "ddot", "cycles": %s}' % cycles)
    assert EvalCache(str(tmp_path)).get(DIGEST) is None


# ---------------------------------------------------------------------------
# the write path

class TestWriteJson:
    def test_round_trip_is_compact_json(self, tmp_path):
        target = tmp_path / "a" / "b" / "x.json"
        data = {"cycles": 12.5, "kernel": "ddot"}
        assert write_json(target, data) is True
        assert target.read_text() == json.dumps(data)
        assert read_json(target) == data

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "x.json"
        write_json(target, {"v": 1})
        write_json(target, {"v": 2})
        assert read_json(target) == {"v": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_unwritable_is_false_not_raised(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert write_json(blocker / "x.json", {"v": 1}) is False
        # the target is a directory: the rename fails after the dump
        (tmp_path / "d.json").mkdir()
        assert write_json(tmp_path / "d.json", {"v": 1}) is False
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json",
                                                              "file"]

    def test_raising_dump_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "ab" / "x.json"
        with pytest.raises(TypeError):
            write_json(target, {"cycles": 1.0, "bad": object()})
        assert list(target.parent.iterdir()) == []
        # and an earlier complete entry survives the failed rewrite
        write_json(target, {"cycles": 1.0})
        with pytest.raises(TypeError):
            write_json(target, {"cycles": 2.0, "bad": object()})
        assert [p.name for p in target.parent.iterdir()] == ["x.json"]
        assert read_json(target) == {"cycles": 1.0}


class TestDigestDir:
    def test_layout_and_entries_order(self, tmp_path):
        store = DigestDir(tmp_path)
        digests = ["cd" * 32, "ab" * 32, "ab" + "ff" * 31]
        for i, digest in enumerate(digests):
            assert store.put(digest, {"i": i})
        assert store.path(DIGEST) == tmp_path / "ab" / f"{DIGEST}.json"
        assert len(store) == 3
        assert [data["i"] for _, data in store.entries()] == [1, 2, 0]
        assert store.get("ee" * 32) is None

    def test_crashed_writer_temp_file_is_invisible(self, tmp_path):
        """``mkstemp`` names ``.tmp-*`` never end in ``.json``, so a
        writer killed between its dump and its rename leaves a file no
        reader, counter or listing sees."""
        complete = json.dumps({"cycles": 9.0, "digest": DIGEST}).encode()
        leftover = tmp_path / "ab" / ".tmp-k2x9q1"
        leftover.parent.mkdir()
        leftover.write_bytes(complete)
        store = DigestDir(tmp_path)
        assert store.get(DIGEST) is None
        assert len(store) == 0 and list(store.entries()) == []
        assert EvalCache(str(tmp_path)).get(DIGEST) is None
        assert len(EvalCache(str(tmp_path))) == 0
        assert ServeResultStore(str(tmp_path)).list() == []
        assert load_entries(tmp_path) == []

    def test_unreadable_entries_are_skipped_not_fatal(self, tmp_path):
        store = DigestDir(tmp_path)
        store.put("cd" * 32, {"ok": True})
        _plant(tmp_path, CORRUPT["non-utf8"])
        assert len(store) == 2
        assert [data for _, data in store.entries()] == [{"ok": True}]


# ---------------------------------------------------------------------------
# concurrent writers

_PAD = "x" * 8192


def _hammer(root: str, writer: int, rounds: int) -> None:
    store = DigestDir(root)
    for i in range(rounds):
        store.put(DIGEST, {"writer": writer, "i": i, "pad": _PAD})


def _hammer_warm(root: str, rounds: int) -> None:
    for i in range(rounds):
        write_warm_entry(root, kernel="ddot", machine="p4e",
                         context="oc", n=4000,
                         params=TransformParams(unroll=4), cycles=float(i))


def _start(target, args_list):
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=target, args=args) for args in args_list]
    for p in procs:
        p.start()
    return procs


def _join(procs):
    for p in procs:
        p.join(timeout=120)
        assert not p.is_alive()
    return [p.exitcode for p in procs]


def test_concurrent_writers_reader_sees_none_or_complete(tmp_path):
    """Four processes rewrite one digest 50 times each while this one
    polls it: every read is a whole entry, or a miss before the first
    write lands — never a miss afterwards, which is what a reader of a
    half-written file would see."""
    writers = _start(_hammer, [(str(tmp_path), w, 50) for w in range(4)])
    store = DigestDir(tmp_path)
    appeared = False
    while any(p.is_alive() for p in writers):
        data = store.get(DIGEST)
        if data is not None:
            assert data["pad"] == _PAD and 0 <= data["i"] < 50
        assert data is not None or not appeared
        appeared = data is not None
    assert _join(writers) == [0, 0, 0, 0]
    final = store.get(DIGEST)
    assert final is not None and final["pad"] == _PAD
    assert len(store) == 1
    assert list(tmp_path.rglob(".tmp-*")) == []


def test_concurrent_warm_entry_writers_do_not_collide(tmp_path):
    """Concurrent writers of one warm-start entry each get their own
    temp file; a shared fixed temp name made one writer's rename fail
    when another had already moved the file away."""
    writers = _start(_hammer_warm, [(str(tmp_path), 50)] * 4)
    assert _join(writers) == [0, 0, 0, 0]
    assert len(load_entries(tmp_path)) == 1
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()
            and not p.name.endswith(".json")] == []


# ---------------------------------------------------------------------------
# on-disk formats: entries written in earlier releases' exact bytes

def test_reads_eval_cache_entry_bytes(tmp_path):
    _plant(tmp_path, b'{"kernel": "ddot", "machine": "P4E", '
                     b'"cycles": 123.5}')
    assert EvalCache(str(tmp_path)).get(DIGEST) == 123.5


def test_writes_eval_cache_entry_bytes(tmp_path):
    EvalCache(str(tmp_path)).put(DIGEST, 123.5, meta={"kernel": "ddot"})
    path = tmp_path / "ab" / f"{DIGEST}.json"
    assert path.read_bytes() == b'{"kernel": "ddot", "cycles": 123.5}'


_WARM_ENTRY = b"""{
 "digest": "%s",
 "job_id": "",
 "result": {
  "context": "out-of-cache",
  "kernel": "ddot",
  "machine": "p4e",
  "n": 4000,
  "params": {
   "ae": 1,
   "block_fetch": false,
   "cf_cleanup": true,
   "copy_propagation": true,
   "lc": true,
   "peephole": true,
   "prefetch": {},
   "register_allocation": "global",
   "schema": 1,
   "sv": true,
   "unroll": 4,
   "wnt": false
  },
  "schema": 1,
  "search": {
   "best_cycles": 123.0
  }
 },
 "schema": 1,
 "status": "done"
}"""


def test_reads_serve_and_warm_entry_bytes(tmp_path):
    digest = TuneRequest(kernel="ddot", machine="p4e", context="oc",
                         n=4000, test=False).digest()
    _plant(tmp_path, _WARM_ENTRY % digest.encode(), digest)
    store = ServeResultStore(str(tmp_path))
    assert store.get(digest)["result"]["search"]["best_cycles"] == 123.0
    assert [r["digest"] for r in store.list()] == [digest]
    warm, source = lookup_warm_start(tmp_path, "ddot", "P4E",
                                     Context.OUT_OF_CACHE, n=4000)
    assert [w.key() for w in warm] == [TransformParams(unroll=4).key()]
    assert source == "ddot:p4e:out-of-cache:4000"


def test_reads_result_store_row_bytes(tmp_path):
    store = ResultStore(quick=True, cache_dir=str(tmp_path))
    key = ("p4e", Context.IN_L2, "sscal", "gcc+ref")
    store._disk_path(key).write_bytes(
        b'{\n "method": "gcc+ref",\n "kernel": "sscal",\n'
        b' "mflops": 1234.5,\n "cycles": 99.0,\n "label": "-O3",\n'
        b' "starred": false,\n "search": null\n}')
    row = store.get(pentium4e(), Context.IN_L2, "sscal", "gcc+ref")
    assert (row.mflops, row.cycles, row.label) == (1234.5, 99.0, "-O3")


def test_reads_indented_checkpoint(tmp_path):
    state = tmp_path / "batch.json"
    completed = {"ddot:p4e": {"kernel": "ddot"}}
    state.write_bytes(b'{\n "version": "%s",\n "completed": {\n'
                      b'  "ddot:p4e": {\n   "kernel": "ddot"\n  }\n }\n}'
                      % __version__.encode())
    with TuningSession(TuneConfig(resume=str(state))) as session:
        assert session._load_checkpoint() == completed
        session._save_checkpoint(completed)
    assert json.loads(state.read_text()) == {"version": __version__,
                                             "completed": completed}


# ---------------------------------------------------------------------------
# one machine spelling

@pytest.mark.parametrize("spelling", ["p4e", "P4E", "pentium4", "Pentium-4E",
                                      "opteron", "K8", "opt"])
def test_canon_machine_matches_the_wire_spelling(spelling):
    expected = get_machine(spelling).name.lower()
    assert canon_machine(spelling) == expected
    assert canon_machine(get_machine(spelling)) == expected
    assert TuneRequest(kernel="ddot", machine=spelling).machine == expected
