"""Tests for the content-keyed on-disk cell cache."""

import json
import math
import multiprocessing
import time

from repro import obs
from repro.experiments.cache import CellCache
from repro.experiments.sweep import Cell, SweepSpec, cell_key, run_sweep

PROBE = "repro.experiments.sweep:probe_cell"


def probe_spec(tmp_path, values, settings=None):
    record = str(tmp_path / "executions.log")
    cells = [
        Cell.make(PROBE, value=float(v), record=record) for v in values
    ]
    return (
        SweepSpec.build("probe", cells, settings=settings or {}),
        tmp_path / "executions.log",
    )


def _hammer(root, key, writer, rounds):
    """Worker: ``put`` one writer-specific payload over and over."""
    cache = CellCache(root)
    payload = {
        "rows": [{"x": float(i)} for i in range(writer + 1)],
        "diagnostics": {"writer": writer},
    }
    for _ in range(rounds):
        cache.put(key, payload)


def executions(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestCellCache:
    def test_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        payload = {"rows": [{"x": 1.0, "delay": math.inf}], "diagnostics": {}}
        cache.put("a" * 64, payload)
        hit = cache.get("a" * 64)
        assert hit["rows"][0]["delay"] == math.inf
        assert hit == json.loads(json.dumps(payload))

    def test_miss_on_absent(self, tmp_path):
        assert CellCache(tmp_path / "cache").get("b" * 64) is None

    def test_corrupted_file_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = "c" * 64
        cache.put(key, {"rows": []})
        cache.path_for(key).write_text("{not json!")
        assert cache.get(key) is None

    def test_wrong_shape_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = "d" * 64
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text('{"no_rows": 1}')
        assert cache.get(key) is None
        cache.path_for(key).write_text('[1, 2, 3]')
        assert cache.get(key) is None

    def test_corrupt_entries_counted_apart_from_misses(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = "9" * 64
        cache.put(key, {"rows": []})
        with obs.scoped(enabled=True) as registry:
            cache.get("8" * 64)  # absent: a plain miss
            cache.path_for(key).write_text("{not json!")
            assert cache.get(key) is None
            cache.path_for(key).write_bytes(b"\xff\xfe")  # not UTF-8
            assert cache.get(key) is None
            cache.path_for(key).write_text('{"no_rows": 1}')
            assert cache.get(key) is None
        assert registry.counter("cache.misses") == 1
        assert registry.counter("cache.corrupt") == 3
        assert registry.counter("cache.hits") == 0

    def test_concurrent_writer_mid_dump_leaves_whole_entry(
        self, tmp_path, monkeypatch
    ):
        """Writer B runs a whole ``put`` while writer A is halfway
        through its ``json.dump`` of the same key; the entry must end up
        as one writer's complete payload, never a splice of both."""
        cache = CellCache(tmp_path / "cache")
        key = "7" * 64
        short = {"rows": [{"x": 1.0, "delay": 2.0}], "diagnostics": {}}
        long = {
            "rows": [{"x": float(i), "delay": 2.0 * i} for i in range(8)],
            "diagnostics": {"writer": "b"},
        }
        real_dump = json.dump
        nested = []

        def interleaved_dump(payload, handle, **kwargs):
            if nested:  # writer B: a plain, complete dump
                return real_dump(payload, handle, **kwargs)
            text = json.dumps(payload, **kwargs)
            half = len(text) // 2
            handle.write(text[:half])
            handle.flush()
            nested.append(True)
            cache.put(key, long)  # writer B, start to finish
            nested.pop()
            handle.write(text[half:])

        monkeypatch.setattr(json, "dump", interleaved_dump)
        cache.put(key, short)  # writer A
        monkeypatch.undo()
        assert cache.get(key) in (short, long)
        leftovers = [
            p.name for p in cache.path_for(key).parent.iterdir()
            if p != cache.path_for(key)
        ]
        assert leftovers == []

    def test_concurrent_writer_processes_never_tear_an_entry(self, tmp_path):
        """More writer processes than cores race on one key while the
        parent keeps reading it: every read is a whole payload."""
        cache = CellCache(tmp_path / "cache")
        key = "6" * 64
        context = multiprocessing.get_context("spawn")
        procs = [
            context.Process(
                target=_hammer, args=(str(cache.root), key, writer, 200)
            )
            for writer in range(4)
        ]
        for proc in procs:
            proc.start()
        deadline = time.monotonic() + 60.0
        with obs.scoped(enabled=True) as registry:
            while time.monotonic() < deadline and any(
                proc.is_alive() for proc in procs
            ):
                cache.get(key)
        for proc in procs:
            proc.join(timeout=60.0)
            assert not proc.is_alive() and proc.exitcode == 0
        assert registry.counter("cache.corrupt") == 0
        assert cache.get(key)["diagnostics"]["writer"] in range(4)
        assert [p.name for p in cache.path_for(key).parent.iterdir()] == [
            cache.path_for(key).name
        ]

    def test_clear(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        cache.put("e" * 64, {"rows": []})
        cache.put("f" * 64, {"rows": []})
        assert cache.clear() == 2
        assert cache.get("e" * 64) is None


class TestSweepCaching:
    def test_warm_run_recomputes_nothing(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2, 3])
        cache = CellCache(tmp_path / "cache")
        cold = run_sweep(spec, cache=cache)
        assert executions(log) == 3
        assert cold.cached_cells == 0
        warm = run_sweep(spec, cache=cache)
        assert executions(log) == 3  # nothing recomputed
        assert warm.cached_cells == 3
        assert warm.rows == cold.rows

    def test_changed_cell_only_recomputes_that_cell(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2, 3])
        cache = CellCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        changed, _ = probe_spec(tmp_path, [1, 2, 4])
        result = run_sweep(changed, cache=cache)
        assert executions(log) == 4  # one extra execution, not three
        assert result.cached_cells == 2
        assert [row["x"] for row in result.rows] == [1.0, 2.0, 4.0]

    def test_changed_settings_miss_everything(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2], settings={"grid": 12})
        cache = CellCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        respec, _ = probe_spec(tmp_path, [1, 2], settings={"grid": 24})
        result = run_sweep(respec, cache=cache)
        assert executions(log) == 4
        assert result.cached_cells == 0

    def test_corrupted_entry_recomputed_not_crashed(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1])
        cache = CellCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        key = cell_key(spec.cells[0], spec.settings)
        cache.path_for(key).write_text("garbage")
        result = run_sweep(spec, cache=cache)
        assert executions(log) == 2
        assert result.cached_cells == 0
        assert result.rows[0]["x"] == 1.0
        # and the entry was repaired on the way out
        assert cache.get(key) is not None

    def test_no_cache_always_recomputes(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2])
        run_sweep(spec)
        run_sweep(spec)
        assert executions(log) == 4
