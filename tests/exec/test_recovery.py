"""Checkpoint store tests: atomic writes, integrity, fault points, and
the campaign spine's strict batch runner with skip-and-persist
semantics."""

import json
import os
import pickle

import pytest

from repro.errors import ExecutionError
from repro.exec import FunctionJob, ParallelExecutor, get_inline_executor
from repro.exec.recovery import (
    CheckpointCrash,
    CheckpointSpec,
    CheckpointStore,
    FaultPoints,
    load_manifest,
    plan_key,
    run_campaign_jobs,
)


def square(ctx, x):
    return x * x


def draw(ctx, tag):
    ctx.metrics.counter("test.draws").inc()
    return (tag, ctx.rng().uniform("u", 0.0, 1.0))


def make_store(tmp_path, every_n=1, plan=("p", 1)):
    spec = CheckpointSpec(dir=str(tmp_path / "ckpt"), every_n_shards=every_n)
    return CheckpointStore(spec, kind="test", plan=plan)


class TestCheckpointSpec:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ExecutionError):
            CheckpointSpec(dir="")
        with pytest.raises(ExecutionError):
            CheckpointSpec(dir="/tmp/x", every_n_shards=0)


class TestStoreRoundtrip:
    def test_add_flush_load(self, tmp_path):
        store = make_store(tmp_path)
        store.add("shard.0-10", {"misses": 3})
        store.add("shard.10-20", {"misses": 5})
        fresh = make_store(tmp_path)
        records = fresh.load()
        assert records == {
            "shard.0-10": {"misses": 3}, "shard.10-20": {"misses": 5}
        }
        assert fresh.loaded == 2 and fresh.discarded == 0

    def test_every_n_buffers_until_batch(self, tmp_path):
        store = make_store(tmp_path, every_n=3)
        ckpt_files = lambda: [  # noqa: E731 - tiny test-local helper
            n for n in os.listdir(store.spec.dir) if n.endswith(".ckpt")
        ]
        store.add("a", 1)
        store.add("b", 2)
        assert ckpt_files() == []  # buffered, not yet durable
        store.add("c", 3)
        assert len(ckpt_files()) == 3  # third add hit the batch size
        store.add("d", 4)
        store.flush()  # explicit flush writes the remainder
        assert len(ckpt_files()) == 4

    def test_record_overwrite_keeps_latest(self, tmp_path):
        store = make_store(tmp_path)
        store.add("k", "old")
        store.add("k", "new")
        assert make_store(tmp_path).load() == {"k": "new"}

    def test_record_names_are_deterministic_and_collision_free(
        self, tmp_path
    ):
        from repro.exec.recovery import _record_name

        assert _record_name("a/b") != _record_name("a:b")  # same sanitized
        assert _record_name("x") == _record_name("x")


class TestIntegrity:
    def test_tmp_files_are_ignored(self, tmp_path):
        store = make_store(tmp_path)
        store.add("good", 1)
        with open(os.path.join(store.spec.dir, "torn.ckpt.tmp"), "wb") as fh:
            fh.write(b"half a record")
        assert make_store(tmp_path).load() == {"good": 1}

    def test_corrupt_payload_is_discarded(self, tmp_path):
        store = make_store(tmp_path)
        store.add("good", 1)
        store.add("bad", 2)
        bad_path = None
        for name in os.listdir(store.spec.dir):
            if name.startswith("bad") and name.endswith(".ckpt"):
                bad_path = os.path.join(store.spec.dir, name)
        with open(bad_path, "rb") as fh:
            header = fh.readline()
        with open(bad_path, "wb") as fh:
            fh.write(header + b"corrupted payload bytes")
        fresh = make_store(tmp_path)
        assert fresh.load() == {"good": 1}
        assert fresh.discarded == 1

    def test_truncated_record_is_discarded(self, tmp_path):
        store = make_store(tmp_path)
        store.add("only", {"x": 1})
        (path,) = [
            os.path.join(store.spec.dir, n)
            for n in os.listdir(store.spec.dir) if n.endswith(".ckpt")
        ]
        with open(path, "r+b") as fh:
            fh.truncate(10)
        fresh = make_store(tmp_path)
        assert fresh.load() == {}
        assert fresh.discarded == 1

    def test_discarded_describes_the_last_load(self, tmp_path):
        """Like ``loaded``, ``discarded`` counts what the last load saw:
        a store loaded once per wave must not sum the same torn record
        once per wave."""
        store = make_store(tmp_path)
        store.add("good", 1)
        store.add("torn", 2)
        (path,) = [
            os.path.join(store.spec.dir, n)
            for n in os.listdir(store.spec.dir)
            if n.startswith("torn") and n.endswith(".ckpt")
        ]
        with open(path, "r+b") as fh:
            fh.truncate(10)
        for _ in range(3):
            assert store.load() == {"good": 1}
            assert (store.loaded, store.discarded) == (1, 1)
        os.remove(path)
        store.load()
        assert (store.loaded, store.discarded) == (1, 0)

    def test_foreign_plan_records_rejected_at_open(self, tmp_path):
        make_store(tmp_path, plan=("p", 1))
        with pytest.raises(ExecutionError, match="different campaign"):
            make_store(tmp_path, plan=("p", 2))

    def test_plan_key_is_content_addressed(self):
        assert plan_key("k", (1, 2)) == plan_key("k", (1, 2))
        assert plan_key("k", (1, 2)) != plan_key("k", (1, 3))
        assert plan_key("a", (1, 2)) != plan_key("b", (1, 2))

    def test_manifest_validates(self, tmp_path):
        store = make_store(tmp_path)
        manifest = load_manifest(store.spec.dir)
        assert manifest["kind"] == "test"
        assert manifest["plan_key"] == store.plan_key
        assert pickle.loads(bytes.fromhex(manifest["plan_hex"])) == ("p", 1)
        with pytest.raises(ExecutionError, match="nothing to resume"):
            load_manifest(str(tmp_path / "nowhere"))

    def test_bad_schema_rejected(self, tmp_path):
        store = make_store(tmp_path)
        path = os.path.join(store.spec.dir, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["schema"] = 99
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ExecutionError, match="schema"):
            load_manifest(store.spec.dir)


class TestFaultPoints:
    def test_armed_point_crashes_on_schedule(self):
        fp = FaultPoints().arm("p", after=2)
        fp.hit("p")
        fp.hit("p")
        with pytest.raises(CheckpointCrash):
            fp.hit("p")
        fp.hit("p")  # disarmed after firing
        assert fp.hits["p"] == 4

    def test_unarmed_points_only_count(self):
        fp = FaultPoints()
        fp.hit("x")
        fp.hit("x")
        assert fp.hits == {"x": 2}

    def test_crash_before_rename_leaves_no_record(self, tmp_path,
                                                  fault_points):
        fault_points.arm("checkpoint.tmp_written")
        store = make_store(tmp_path)
        with pytest.raises(CheckpointCrash):
            store.add("shard", {"x": 1})
        # the temp file may remain, but no *visible* record does — and a
        # resume recomputes the shard instead of trusting torn state
        assert make_store(tmp_path).load() == {}

    def test_crash_after_rename_keeps_the_record(self, tmp_path,
                                                 fault_points):
        fault_points.arm("checkpoint.record_written")
        store = make_store(tmp_path)
        with pytest.raises(CheckpointCrash):
            store.add("shard", {"x": 1})
        assert make_store(tmp_path).load() == {"shard": {"x": 1}}

    def test_torn_write_after_header_leaves_no_record(self, tmp_path,
                                                      fault_points):
        """A crash between the header line and the payload leaves only a
        torn temp file: nothing visible, and the key writes cleanly
        afterwards."""
        fault_points.arm("checkpoint.header_written")
        store = make_store(tmp_path)
        with pytest.raises(CheckpointCrash):
            store.add("shard", {"x": 1})
        assert not [n for n in os.listdir(store.spec.dir)
                    if n.endswith(".ckpt")]
        assert make_store(tmp_path).load() == {}
        store = make_store(tmp_path)
        store.add("shard", {"x": 2})
        assert make_store(tmp_path).load() == {"shard": {"x": 2}}


class TestRunJobsCheckpointed:
    def test_without_store_is_plain_run_jobs(self):
        jobs = [FunctionJob(f"j{i}", square, i) for i in range(5)]
        report = run_campaign_jobs(
            jobs, executor=get_inline_executor(), master_seed=3
        )
        assert report.values == [0, 1, 4, 9, 16]

    def test_second_run_loads_instead_of_recomputing(self, tmp_path):
        jobs = [FunctionJob(f"j{i}", draw, f"t{i}") for i in range(6)]
        ex = get_inline_executor()
        store = make_store(tmp_path)
        first = run_campaign_jobs(
            jobs, executor=ex, master_seed=5, store=store
        )
        again = run_campaign_jobs(
            jobs, executor=ex, master_seed=5, store=make_store(tmp_path)
        )
        assert again.values == first.values
        assert [r.digest for r in again.results] == [
            r.digest for r in first.results
        ]
        # loaded results are marked as replayed, not re-executed
        assert all(r.attempts == 0 for r in again.results)
        assert all(r.attempts == 1 for r in first.results)

    def test_partial_store_runs_only_missing_jobs(self, tmp_path):
        jobs = [FunctionJob(f"j{i}", draw, f"t{i}") for i in range(6)]
        ex = get_inline_executor()
        full_store = make_store(tmp_path)
        reference = run_campaign_jobs(
            jobs, executor=ex, master_seed=5, store=full_store
        )
        # drop half the records to simulate a mid-batch crash
        names = sorted(
            n for n in os.listdir(full_store.spec.dir)
            if n.endswith(".ckpt")
        )
        for name in names[:3]:
            os.remove(os.path.join(full_store.spec.dir, name))
        resumed = run_campaign_jobs(
            jobs, executor=ex, master_seed=5, store=make_store(tmp_path)
        )
        assert resumed.values == reference.values
        ran = [r for r in resumed.results if r.attempts > 0]
        assert len(ran) == 3  # exactly the missing ones re-ran

    def test_results_persist_mid_batch_not_only_at_the_end(
        self, tmp_path, fault_points
    ):
        """The on_result hook flushes shards as they complete: a crash
        after N completions must leave N durable records."""
        fault_points.arm("checkpoint.record_written", after=2)
        store = make_store(tmp_path)
        jobs = [FunctionJob(f"j{i}", square, i) for i in range(6)]
        with pytest.raises(CheckpointCrash):
            run_campaign_jobs(
                jobs, executor=get_inline_executor(), master_seed=1,
                store=store,
            )
        assert len(make_store(tmp_path).load()) == 3

    def test_parallel_checkpointed_matches_inline(self, tmp_path):
        jobs = [FunctionJob(f"j{i}", draw, f"t{i}") for i in range(12)]
        reference = get_inline_executor().run_jobs(jobs, master_seed=9)
        ex = ParallelExecutor(workers=2)
        try:
            report = run_campaign_jobs(
                jobs, executor=ex, master_seed=9, store=make_store(tmp_path)
            )
        finally:
            ex.close()
        assert report.values == reference.values
        resumed = run_campaign_jobs(
            jobs, executor=get_inline_executor(), master_seed=9,
            store=make_store(tmp_path),
        )
        assert resumed.values == reference.values
        assert all(r.attempts == 0 for r in resumed.results)

    def test_duplicate_ids_rejected_before_the_store_is_read(self, tmp_path):
        """A stored record must not let a duplicate id through: with or
        without a store, the batch fails on the id, not on a replay."""
        twins = [FunctionJob("a", square, 1), FunctionJob("a", square, 2)]
        run_campaign_jobs(twins[:1], master_seed=1,
                          store=make_store(tmp_path))
        with pytest.raises(ExecutionError, match="duplicate job_id 'a'"):
            run_campaign_jobs(twins, master_seed=1)
        with pytest.raises(ExecutionError, match="duplicate job_id 'a'"):
            run_campaign_jobs(twins, master_seed=1,
                              store=make_store(tmp_path))

    def test_failed_job_raises_the_kind_error(self, tmp_path):
        """The strict runner raises the caller's error type naming the
        failed job; stored successes are kept."""
        jobs = [FunctionJob("ok", square, 2), FunctionJob("bad", square, None)]
        store = make_store(tmp_path)
        with pytest.raises(KeyError, match="1/2 squares failed .*bad"):
            run_campaign_jobs(jobs, master_seed=1, store=store,
                              error=KeyError, what="squares")
        assert set(make_store(tmp_path).load()) == {"ok"}
