"""Tests of the persistent cross-process evaluation cache.

Round trips, version-salted invalidation, corruption tolerance, the
batched writes, and the Session/CLI wiring: a second process (here: a
second Session on the same directory) must answer warm evaluations from
disk without running the engine — including the ``sweep --parallel``
worker path.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import sqlite3
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from typing import Dict

import pytest

import repro
import repro.api.session as session_module
from repro.api import (
    CacheInfo,
    EvalCache,
    Session,
    default_cache_dir,
    open_default_cache,
)
from repro.api.cache import (
    _EVALUATION_SOURCES,
    WRITE_BATCH_ROWS,
    persistent_cache_disabled,
)
from repro.api.registry import list_strategies
from repro.cli import main
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.models import tinyllama_42m
from repro.spec import ModelSpec, PlatformSpec, WorkloadSpec


@pytest.fixture
def workload():
    return autoregressive(tinyllama_42m(), 128)


@pytest.fixture
def store(tmp_path):
    return EvalCache(tmp_path / "cache")


def _evaluate(workload, chips=2):
    return Session(memoize=False).run(workload, chips=chips)


def _stored_rows(directory) -> Dict[str, bytes]:
    """The committed rows of the store in ``directory``, read directly."""
    connection = sqlite3.connect(str(Path(directory) / "evals.sqlite"))
    try:
        return dict(connection.execute("SELECT key, value FROM evals"))
    finally:
        connection.close()


#: Evaluates 100 distinct points on a store, prints its cache statistics,
#: then exits (``exit``) or waits to be killed (``wait``).
HUNDRED_PUTS = """
import sys
from repro.api import Session
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m

session = Session(cache_dir=sys.argv[1])
config = tinyllama_42m()
for seq_len in range(8, 58):
    for strategy in ("paper", "weight_replicated"):
        session.run(autoregressive(config, seq_len), strategy, chips=2)
info = session.cache_info()
print(info.misses, info.disk_hits, flush=True)
if sys.argv[2] == "wait":
    sys.stdin.read()
"""


def _hundred_puts(directory, action: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", HUNDRED_PUTS, str(directory), action],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(process: subprocess.Popen) -> str:
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    return stdout


# ----------------------------------------------------------------------
# EvalCache store behaviour
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_get_put_round_trip(self, store, workload):
        result = _evaluate(workload)
        assert store.get("key") is None
        store.put("key", result)
        loaded = store.get("key")
        assert loaded is not None
        assert loaded.block_cycles == result.block_cycles
        assert loaded.workload == result.workload
        assert len(store) == 1

    def test_put_overwrites(self, store, workload):
        first = _evaluate(workload, chips=1)
        second = _evaluate(workload, chips=2)
        store.put("key", first)
        store.put("key", second)
        assert store.get("key").num_chips == 2
        assert len(store) == 1

    def test_clear_and_stats(self, store, workload):
        store.put("a", _evaluate(workload))
        store.put("b", _evaluate(workload))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.size_bytes > 0
        assert stats.path == str(store.path)
        assert store.clear() == 2
        assert len(store) == 0

    def test_rows_share_one_configuration_and_platform(self, store):
        # Equal but distinct inputs give each result its own objects.
        platforms = [replace(siracusa_platform(2)) for _ in range(2)]
        results = [
            Session(memoize=False).run(
                autoregressive(tinyllama_42m(), 128), platform=platform
            )
            for platform in platforms
        ]
        assert results[0].workload.config is not results[1].workload.config
        assert results[0].report.platform is not results[1].report.platform
        for key, result in zip("ab", results):
            store.put(key, result)
        store.flush()
        rows = _stored_rows(store.directory)
        loaded = [store.get(key) for key in "ab"]
        assert loaded[0].workload.config is loaded[1].workload.config
        assert loaded[0].report.platform is loaded[1].report.platform
        assert loaded[0].report.program.platform is loaded[0].report.platform
        assert loaded[0].workload.config == results[0].workload.config
        assert loaded[0].report.platform == platforms[0]
        for key, result in zip("ab", loaded):
            assert pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL) == rows[key]

    @pytest.mark.parametrize("record_events", [False, True])
    def test_per_chip_rows_round_trip(self, workload, record_events):
        # A row shared by chips of equal plans, counters or energies must
        # rebuild every chip's values.
        computed = Session(memoize=False).run(
            workload, chips=8, record_events=record_events
        )
        loaded = pickle.loads(pickle.dumps(computed, protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded.report.simulation.chip_traces == computed.report.simulation.chip_traces
        assert loaded.report.energy.per_chip == computed.report.energy.per_chip
        assert loaded.report.program.memory_plans == computed.report.program.memory_plans

    def test_loaded_objects_are_not_kept_alive(self, store, workload):
        # A link no other test builds, so no live object shares its blob.
        platform = replace(
            siracusa_platform(2), link=replace(siracusa_platform(2).link, name="weak")
        )
        store.put("key", Session(memoize=False).run(workload, platform=platform))
        loaded = store.get("key")
        assert loaded.report.platform == platform
        assert loaded.report.platform is not platform
        dead = weakref.ref(loaded.report.platform)
        del loaded
        gc.collect()
        assert dead() is None

    def test_unpicklable_value_is_skipped(self, store):
        store.put("weird", lambda: None)  # best effort: silently dropped
        assert store.get("weird") is None


class TestVersioning:
    def test_code_version_change_invalidates_the_store(self, store, workload):
        store.put("key", _evaluate(workload))
        store.close()
        with sqlite3.connect(str(store.path)) as connection:
            connection.execute(
                "UPDATE meta SET value = '0.0.0' WHERE key = 'code_version'"
            )
        reopened = EvalCache(store.directory)
        assert reopened.get("key") is None
        assert len(reopened) == 0

    def test_schema_version_change_invalidates_the_store(self, store, workload):
        store.put("key", _evaluate(workload))
        store.close()
        with sqlite3.connect(str(store.path)) as connection:
            connection.execute(
                "UPDATE meta SET value = '-1' WHERE key = 'schema_version'"
            )
        assert EvalCache(store.directory).get("key") is None

    def test_same_version_reopen_keeps_entries(self, store, workload):
        store.put("key", _evaluate(workload))
        store.close()
        assert EvalCache(store.directory).get("key") is not None

    def test_editing_evaluation_code_empties_older_stores(self, tmp_path):
        # A working-tree edit without a version bump: the store written
        # before the edit must come back empty after it.
        source = tmp_path / "src"
        shutil.copytree(
            Path(repro.__file__).parent,
            source / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        script = (
            "import sys, repro\n"
            "from repro.api import EvalCache\n"
            "assert repro.__file__.startswith(sys.argv[1]), repro.__file__\n"
            "store = EvalCache(sys.argv[2])\n"
            "if sys.argv[3] == 'put':\n"
            "    store.put('key', 'value')\n"
            "print(len(store))\n"
        )

        def entries_seen(action: str) -> int:
            completed = subprocess.run(
                [sys.executable, "-c", script, str(source), str(tmp_path / "store"), action],
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(source)},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            return int(completed.stdout)

        assert entries_seen("put") == 1
        assert entries_seen("get") == 1  # unedited code keeps the entry
        module = source / "repro" / "kernels" / "matmul.py"
        module.write_text(module.read_text() + "\n# an edit\n")
        assert entries_seen("get") == 0

    def test_stats_is_read_only_on_mismatched_stores(self, store, workload):
        store.put("key", _evaluate(workload))
        store.close()
        with sqlite3.connect(str(store.path)) as connection:
            connection.execute(
                "UPDATE meta SET value = '9.9.9' WHERE key = 'code_version'"
            )
        inspected = EvalCache(store.directory).stats()
        # Inspection reports the store's own stamp and wipes nothing...
        assert inspected.code_version == "9.9.9"
        assert inspected.entries == 1
        # ...while an actual use applies the version invalidation.
        assert EvalCache(store.directory).get("key") is None


class TestCorruptionTolerance:
    def test_corrupt_database_file_is_rebuilt(self, tmp_path, workload):
        store = EvalCache(tmp_path)
        store.put("key", _evaluate(workload))
        store.close()
        store.path.write_bytes(b"this is not a sqlite file")
        for suffix in ("-wal", "-shm"):
            stale = store.path.with_name(store.path.name + suffix)
            if stale.exists():
                stale.unlink()
        rebuilt = EvalCache(tmp_path)
        assert rebuilt.get("key") is None  # the store was reset, not raised
        rebuilt.put("key", _evaluate(workload))
        assert rebuilt.get("key") is not None

    def test_corrupt_entry_degrades_to_a_miss(self, store, workload):
        store.put("key", _evaluate(workload))
        store.flush()
        store._connect().execute(
            "UPDATE evals SET value = ? WHERE key = 'key'",
            (b"\x80\x04 truncated pickle",),
        )
        assert store.get("key") is None
        assert len(store) == 0  # the rotten entry was dropped

    def test_entry_of_unknown_class_degrades_to_a_miss(self, store):
        payload = pickle.dumps(_evaluate(autoregressive(tinyllama_42m(), 128)))
        payload = payload.replace(b"EvalResult", b"GoneResult")
        store._connect().execute(
            "INSERT INTO evals (key, value) VALUES ('key', ?)", (payload,)
        )
        assert store.get("key") is None

    def test_entry_whose_platform_names_an_unknown_class_is_dropped(
        self, store, workload
    ):
        result = _evaluate(workload)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        # The platform's fields travel as one nested pickle in the row.
        _, (_, blob) = result.report.platform.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        assert payload.count(blob) == 1 and b"ChipModel" in blob
        payload = payload.replace(blob, blob.replace(b"ChipModel", b"GoneModel"))
        store._connect().execute(
            "INSERT INTO evals (key, value) VALUES ('key', ?)", (payload,)
        )
        assert store.get("key") is None
        assert len(store) == 0  # the unreadable entry was dropped

    def test_unwritable_location_behaves_like_an_empty_cache(self, workload):
        store = EvalCache("/proc/no-such-place/repro-cache")
        assert store.get("key") is None
        store.put("key", _evaluate(workload))
        assert store.get("key") is None
        assert len(store) == 0
        assert store.stats().entries == 0


class TestBatchedWrites:
    def test_a_normal_exit_commits_every_buffered_row(self, tmp_path):
        assert _finish(_hundred_puts(tmp_path, "exit")).split() == ["100", "0"]
        assert len(_stored_rows(tmp_path)) == 100

    def test_a_killed_process_loses_only_its_unflushed_rows(self, tmp_path):
        clean, killed = tmp_path / "clean", tmp_path / "killed"
        _finish(_hundred_puts(clean, "exit"))
        process = _hundred_puts(killed, "wait")
        try:
            assert process.stdout.readline().split() == ["100", "0"]
        finally:
            process.kill()
            process.communicate(timeout=60)
        assert len(_stored_rows(killed)) >= WRITE_BATCH_ROWS
        # The rerun answers the committed rows from disk and recomputes
        # the lost ones to the bytes an uninterrupted run stored.
        misses, disk_hits = map(int, _finish(_hundred_puts(killed, "exit")).split())
        assert misses + disk_hits == 100 and disk_hits >= WRITE_BATCH_ROWS
        assert _stored_rows(killed) == _stored_rows(clean)

    def test_a_failed_flush_counts_every_buffered_row_as_dropped(
        self, store, workload
    ):
        result = _evaluate(workload)
        for key in ("a", "b", "c"):
            store.put(key, result)
        store._connect().execute("PRAGMA busy_timeout=0")
        blocker = sqlite3.connect(str(store.path), isolation_level=None)
        try:
            blocker.execute("BEGIN IMMEDIATE")  # hold the write lock
            store.flush()
        finally:
            blocker.close()
        assert store.dropped_writes == 3
        assert store.get("a") is None
        assert len(store) == 0

    def test_a_second_session_reads_a_buffered_row(self, tmp_path, workload):
        first = Session(cache_dir=tmp_path)
        result = first.run(workload, chips=4)
        assert _stored_rows(tmp_path) == {}  # still in the buffer
        second = Session(cache_dir=tmp_path)
        again = second.run(workload, chips=4)
        assert second.cache_info()[:2] == (0, 0)
        assert second.cache_info().disk_hits == 1
        assert again == result

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_neither_reads_nor_flushes_the_parents_rows(
        self, store
    ):
        store.put("key", "value")
        pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            status = 1
            try:
                child = EvalCache(store.directory)
                if child.get("key") is None:
                    store.flush()
                    child.close()
                    status = 0
            finally:
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0
        assert _stored_rows(store.directory) == {}
        store.flush()
        assert list(_stored_rows(store.directory)) == ["key"]


class TestEnvironment:
    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert open_default_cache().directory == tmp_path / "elsewhere"

    def test_no_cache_env_disables_default_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert persistent_cache_disabled()
        assert open_default_cache() is None

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


# ----------------------------------------------------------------------
# Session wiring
# ----------------------------------------------------------------------
class TestSessionPersistence:
    def test_second_session_answers_from_disk(self, tmp_path, workload):
        first = Session(cache_dir=tmp_path)
        result = first.run(workload, chips=4)
        assert first.cache_info().misses == 1

        second = Session(cache_dir=tmp_path)
        again = second.run(workload, chips=4)
        info = second.cache_info()
        assert info.disk_hits == 1
        assert info.misses == 0
        assert again.block_cycles == result.block_cycles
        # Once loaded, later repeats hit the in-memory layer.
        second.run(workload, chips=4)
        assert second.cache_info().hits == 1

    def test_memoize_off_with_cache_dir_is_a_loud_conflict(self, tmp_path):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="memoize=False"):
            Session(memoize=False, cache_dir=tmp_path)
        session = Session(memoize=False)  # without cache_dir: fine
        assert session.persistent_cache is None

    def test_custom_energy_with_cache_dir_is_a_loud_conflict(self, tmp_path):
        from repro.energy.model import EnergyModel
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="energy"):
            Session(cache_dir=tmp_path, energy=lambda p: EnergyModel(p))
        with pytest.raises(AnalysisError, match="energy"):
            Session(energy=lambda p: EnergyModel(p), persistent=True)
        # Without an explicit persistence request the session quietly
        # stays in-memory (callables cannot be hashed across processes).
        session = Session(energy=lambda p: EnergyModel(p))
        assert session.persistent_cache is None

    def test_persistent_false_wins_over_cache_dir(self, tmp_path, workload):
        session = Session(cache_dir=tmp_path, persistent=False)
        session.run(workload, chips=2)
        assert session.persistent_cache is None
        assert not (tmp_path / "evals.sqlite").exists()

    def test_external_strategies_stay_out_of_the_store(
        self, tmp_path, workload
    ):
        from repro.api import register_strategy, unregister_strategy
        from repro.api.strategies import PaperStrategy

        class ExternalStrategy(PaperStrategy):
            name = "external-test-strategy"
            aliases = ()
            label = "externally registered"

        ExternalStrategy.__module__ = "userland.plugins"
        register_strategy(ExternalStrategy)
        try:
            session = Session(cache_dir=tmp_path)
            session.run(workload, "external-test-strategy", chips=2)
            # The edit-the-plugin-and-rerun hazard: results of code the
            # version salt does not cover are never persisted.
            assert len(session.persistent_cache) == 0
            fresh = Session(cache_dir=tmp_path)
            fresh.run(workload, "external-test-strategy", chips=2)
            assert fresh.cache_info().misses == 1
            assert fresh.cache_info().disk_hits == 0
        finally:
            unregister_strategy("external-test-strategy")

    def test_plain_sessions_stay_in_memory_only(self, workload):
        session = Session()
        session.run(workload, chips=2)
        assert session.persistent_cache is None
        assert not default_cache_dir().exists()

    def test_distinct_options_get_distinct_entries(self, tmp_path, workload):
        session = Session(cache_dir=tmp_path)
        session.run(workload, chips=2)
        session.run(workload, chips=4)
        assert len(session.persistent_cache) == 2
        fresh = Session(cache_dir=tmp_path)
        fresh.run(workload, chips=2)
        fresh.run(workload, chips=4)
        assert fresh.cache_info() == (0, 0, 2, 2, 0)

    def test_corrupt_store_falls_back_to_the_engine(self, tmp_path, workload):
        warm = Session(cache_dir=tmp_path)
        expected = warm.run(workload, chips=2)
        (tmp_path / "evals.sqlite").write_bytes(b"garbage")
        for suffix in ("-wal", "-shm"):
            stale = tmp_path / f"evals.sqlite{suffix}"
            if stale.exists():
                stale.unlink()
        fallback = Session(cache_dir=tmp_path)
        result = fallback.run(workload, chips=2)
        assert fallback.cache_info().misses == 1
        assert result.block_cycles == expected.block_cycles


class TestParallelSweepSharing:
    """Workers never open the store: the parent looks up and writes every row."""

    def test_repeated_parallel_sweep_performs_zero_engine_runs(
        self, tmp_path, workload, monkeypatch, pools
    ):
        chips = (1, 2, 4, 8)
        engine_runs = []
        original = session_module._evaluate_many

        def counting_evaluate_many(impl, workload, platforms, options):
            engine_runs.extend(platforms)
            return original(impl, workload, platforms, options)

        monkeypatch.setattr(
            session_module, "_evaluate_many", counting_evaluate_many
        )
        # The patched name is the batch path's engine step: a cold sweep
        # in this process goes through it once per chip count.
        Session().sweep(workload, chips)
        assert len(engine_runs) == len(chips)

        cold = Session(cache_dir=tmp_path)
        first = cold.sweep(workload, chips, parallel=2)
        assert len(pools) == 1
        assert cold.cache_info() == CacheInfo(
            hits=0, misses=len(chips), size=len(chips)
        )

        del engine_runs[:], pools[:]
        warm = Session(cache_dir=tmp_path)
        second = warm.sweep(workload, chips, parallel=2)
        info = warm.cache_info()
        assert info.misses == 0  # zero engine runs, asserted via cache_info
        assert info.disk_hits == len(chips)
        assert not engine_runs  # and via the engine step itself
        assert not pools  # nothing to evaluate, so no pool starts
        assert [r.block_cycles for r in second.results] == [
            r.block_cycles for r in first.results
        ]

    def test_parallel_sweep_writes_every_point_to_disk(
        self, tmp_path, workload
    ):
        session = Session(cache_dir=tmp_path)
        session.sweep(workload, (1, 2, 4, 8), parallel=2)
        assert len(session.persistent_cache) == 4


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCacheCli:
    def test_cache_path_stats_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["cache", "path", "--cache-dir", cache_dir]) == 0
        path = capsys.readouterr().out.strip()
        assert path.endswith("evals.sqlite")

        assert main(
            ["sweep", "--chips", "1", "2", "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = capsys.readouterr().out
        assert "entries        : 2" in stats

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_sweep_reuses_the_store_across_invocations(self, capsys):
        import json

        assert main(["sweep", "--chips", "1", "2", "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache"]["misses"] == 2
        # Same command again: a fresh Session (standing in for a fresh
        # process) answers every point from the on-disk store.
        assert main(["sweep", "--chips", "1", "2", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["disk_hits"] == 2
        assert warm["results"] == cold["results"]

    def test_no_cache_flag_disables_the_store(self, capsys):
        import json

        for _ in range(2):
            assert main(
                ["sweep", "--chips", "1", "2", "--json", "--no-cache"]
            ) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["cache"]["misses"] == 2
            assert document["cache"]["disk_hits"] == 0
        assert not default_cache_dir().exists()

    def test_global_flag_position_also_works(self, capsys):
        assert main(["--no-cache", "sweep", "--chips", "1"]) == 0
        capsys.readouterr()
        assert not default_cache_dir().exists()


#: Files a cold evaluation runs outside the store's code digest: they route
#: requests, raise errors, or decode the inputs that the key hashes, and a
#: failed evaluation is never stored.
OUTSIDE_THE_DIGEST = {
    "api/session.py",
    "errors.py",
    "registry.py",
    "spec/base.py",
    "spec/specs.py",
}


def test_the_code_digest_covers_every_file_an_evaluation_runs():
    package = Path(repro.__file__).resolve().parent
    executed = set()

    def profile(frame, event, arg):
        if event == "call":
            executed.add(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        # gqa-moe-tiny's 4 experts cannot be spread over 8 chips.
        for model, mode, chips in (
            ("tinyllama-42m", "autoregressive", 8),
            ("gqa-moe-tiny", "prompt", 4),
        ):
            workload = WorkloadSpec(model=ModelSpec(name=model), mode=mode).build()
            platform = PlatformSpec(chips=chips).build()
            for strategy in list_strategies():
                Session(persistent=False).run(workload, strategy, platform=platform)
    finally:
        sys.setprofile(previous)
    files = {
        path.relative_to(package).as_posix()
        for path in map(Path, executed)
        if package in path.resolve().parents
    }
    outside = {
        name
        for name in files
        if not any(
            name == entry or name.startswith(f"{entry}/")
            for entry in _EVALUATION_SOURCES
        )
    }
    assert {"core/scheduler.py", "sim/fastpath.py", "energy/model.py"} <= files
    assert outside <= OUTSIDE_THE_DIGEST
    assert all((package / name).is_file() for name in OUTSIDE_THE_DIGEST)
