"""Tests for the experiment store's optional disk persistence."""

import json
import pathlib

import pytest

from repro.experiments.store import MethodResult, ResultStore
from repro.machine import Context, pentium4e


class TestDiskCache:
    def test_writes_and_reloads(self, tmp_path):
        s1 = ResultStore(quick=True, cache_dir=str(tmp_path))
        r1 = s1.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        s2 = ResultStore(quick=True, cache_dir=str(tmp_path))
        r2 = s2.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        assert r2.mflops == r1.mflops
        assert r2.cycles == r1.cycles

    def test_filename_carries_version_and_size(self, tmp_path):
        from repro import __version__
        s = ResultStore(quick=True, cache_dir=str(tmp_path))
        s.get(pentium4e(), Context.IN_L2, "sscal", "gcc+ref")
        name = next(tmp_path.glob("*.json")).name
        assert f"v{__version__}" in name
        assert "1024" in name and "sscal" in name

    def test_ifko_not_reloaded_from_disk(self, tmp_path):
        """ifko results carry SearchResult detail that the JSON summary
        cannot represent, so they are recomputed per process."""
        s1 = ResultStore(quick=True, cache_dir=str(tmp_path))
        r1 = s1.get(pentium4e(), Context.IN_L2, "sscal", "ifko")
        assert r1.search is not None
        s2 = ResultStore(quick=True, cache_dir=str(tmp_path))
        r2 = s2.get(pentium4e(), Context.IN_L2, "sscal", "ifko")
        assert r2.search is not None   # recomputed, not a summary

    @pytest.mark.parametrize("content", [
        b"{ not json",
        b"[]",
        b"{}",
        b"\xff\xfe not utf-8",
        b'{"method": "FKO", "mflops": 1.0, "cycles": 2.0}',
        b'{"method": "FKO", "kernel": "sscal", "cycles": 2.0}',
        b'{"method": "FKO", "kernel": "sscal", "mflops": 1.0}',
    ], ids=["truncated", "list", "empty", "non-utf8", "no-kernel",
            "no-mflops", "no-cycles"])
    def test_corrupt_cache_file_ignored(self, tmp_path, content):
        s = ResultStore(quick=True, cache_dir=str(tmp_path))
        s.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        f = next(tmp_path.glob("*.json"))
        f.write_bytes(content)
        s2 = ResultStore(quick=True, cache_dir=str(tmp_path))
        r = s2.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        assert r.mflops > 0  # silently recomputed

    def test_no_cache_dir_means_memory_only(self):
        s = ResultStore(quick=True, cache_dir=None)
        assert s.cache_dir is None
        r = s.get(pentium4e(), Context.IN_L2, "sscal", "FKO")
        assert r.mflops > 0

    def test_starred_flag_round_trips(self, tmp_path):
        s1 = ResultStore(quick=True, cache_dir=str(tmp_path))
        r1 = s1.get(pentium4e(), Context.IN_L2, "isamax", "ATLAS")
        assert r1.starred
        s2 = ResultStore(quick=True, cache_dir=str(tmp_path))
        r2 = s2.get(pentium4e(), Context.IN_L2, "isamax", "ATLAS")
        assert r2.starred and r2.display_kernel == "isamax*"
