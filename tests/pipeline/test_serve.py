"""Scaled-down serve runs: the CI-sized version of ``python -m repro serve``.

The acceptance run streams 500 blocks with the serializability oracle and
a root-parity twin online; here we keep the same moving parts — durable
backend, fee-ordered packing, backpressure, per-block oracle checks,
sealed-root parity, mid-stream crash + recovery, compaction, JSON report —
at a size a test suite can afford.
"""

import json

import pytest

from repro.__main__ import main
from repro.pipeline import ServeReport, run_serve

SMALL = dict(users=48, erc20_tokens=2, dex_pools=2, nft_collections=2, icos=1)
BLOCKS = 12
TXS_PER_BLOCK = 12


@pytest.fixture(scope="module")
def serve_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "serve.json"
    report = run_serve(
        blocks=BLOCKS,
        txs_per_block=TXS_PER_BLOCK,
        scenario="mix",
        scheduler="dmvcc",
        threads=4,
        seed=91,
        backend="durable",
        max_inflight=2,
        check=True,
        workload_overrides=SMALL,
        report_path=str(path),
    )
    return report, path


class TestServeInvariants:
    def test_run_is_clean(self, serve_report):
        report, _ = serve_report
        assert isinstance(report, ServeReport)
        assert report.ok, report.render()
        assert report.oracle_violations == []
        assert report.root_mismatches == []

    def test_every_block_checked(self, serve_report):
        report, _ = serve_report
        assert report.pipeline.blocks == BLOCKS
        assert report.oracle_checks == BLOCKS
        # Every sealed header is compared against the twin's root.
        assert report.root_parity_checks == BLOCKS

    def test_backpressure_engaged_during_the_run(self, serve_report):
        # The serve defaults are tuned so the stream genuinely outruns
        # consumption — a run that never throttles is not exercising the
        # flow-control path the subsystem exists for.
        report, _ = serve_report
        assert report.pipeline.backpressure_engagements >= 1
        assert report.pipeline.throttled_pulls >= 1

    def test_report_json_round_trips(self, serve_report):
        report, path = serve_report
        payload = json.loads(path.read_text())
        results = payload.get("results", payload)
        assert results["ok"] is True
        assert results["totals"]["blocks"] == BLOCKS
        assert results["invariants"]["oracle_checks"] == BLOCKS
        assert results["config"]["scenario"] == "mix"
        assert set(results["stages"]) == {
            "ingest", "analyse", "pack", "execute", "seal", "persist",
        }

    def test_render_mentions_invariants(self, serve_report):
        report, _ = serve_report
        rendered = report.render()
        assert "oracle" in rendered
        assert "root parity" in rendered
        assert "OK" in rendered


@pytest.fixture(scope="module", params=[0, 2], ids=["inflight0", "inflight2"])
def crash_report(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("crash") / "serve-crash.json"
    report = run_serve(
        blocks=14,
        txs_per_block=16,
        scenario="mix",
        scheduler="dmvcc",
        threads=4,
        seed=77,
        backend="durable",
        max_inflight=request.param,
        check=True,
        crashes=1,
        compact_every=6,
        workload_overrides=SMALL,
        report_path=str(path),
    )
    return report, path


class TestServeCrashRecovery:
    """Crash injection and compaction on the durable backend, sequential
    and pipelined."""

    def test_invariants_hold_throughout(self, crash_report):
        report, _ = crash_report
        assert report.ok, report.render()
        assert report.oracle_violations == []
        assert report.root_mismatches == []
        assert report.recovery_failures == []

    def test_every_block_checked(self, crash_report):
        report, _ = crash_report
        assert report.pipeline.blocks == 14
        # A crashed block is re-produced after recovery, so oracle checks
        # may exceed the block count but never fall short; every sealed
        # header is compared against the twin exactly once.
        assert report.oracle_checks >= 14
        assert report.root_parity_checks == 14

    def test_crash_was_injected_and_recovered(self, crash_report):
        report, _ = crash_report
        assert report.crashes_scheduled == 1
        # The fault either fired mid-append or the block squeaked through
        # the budget — both paths must reopen and verify the recovered db.
        assert report.crashes_fired + report.crash_survivals == 1
        assert report.recoveries_ok == 1

    def test_compaction_ran(self, crash_report):
        report, _ = crash_report
        assert report.compactions == 2  # after blocks 6 and 12

    def test_report_json_stamped(self, crash_report):
        report, path = crash_report
        payload = json.loads(path.read_text())
        assert payload["repro_meta"]["schema_version"] == 4
        assert "shards" not in payload["repro_meta"]
        assert payload["repro_meta"]["merge_ops"] == []
        assert payload["ok"] is True
        assert payload["config"]["backend"] == "durable"
        assert payload["crashes"]["scheduled"] == 1
        assert payload["crashes"]["recovered"] == 1
        assert payload["compaction"]["runs"] == report.compactions
        assert payload["invariants"]["recovery_failures"] == []


    def test_outlived_budget_still_recovers(self, monkeypatch):
        """A byte budget larger than the block's append: nothing fires,
        the block seals on the armed store, and recovery still checks."""
        import repro.pipeline.serve as serve

        monkeypatch.setattr(serve, "DEFAULT_CRASH_WINDOW", 1 << 40)
        report = run_serve(
            blocks=5, txs_per_block=8, scenario="mix", threads=2, seed=5,
            backend="durable", max_inflight=2, check=True, crashes=1,
            workload_overrides=SMALL,
        )
        assert report.ok, report.render()
        assert (report.crashes_fired, report.crash_survivals) == (0, 1)
        assert report.recoveries_ok == 1
        assert report.root_parity_checks == report.pipeline.blocks == 5


class TestServeModes:
    def test_memory_backend_and_sequential_mode(self):
        report = run_serve(
            blocks=4, txs_per_block=8, scenario="mint_storm",
            scheduler="dmvcc", threads=2, seed=17, backend="memory",
            max_inflight=0, check=True, workload_overrides=SMALL,
        )
        assert report.ok, report.render()
        assert not report.pipeline.pipelined
        assert report.pipeline.blocks == 4

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_serve(blocks=1, backend="floppy")

    def test_memory_backend_runs_without_crashes(self):
        """Pipelined DMVCC on the memory backend: compaction is a no-op
        there and no crash cycle is scheduled."""
        report = run_serve(
            blocks=4, txs_per_block=8, scenario="abort_storm",
            scheduler="dmvcc", threads=2, seed=5, backend="memory",
            check=True, crashes=0, compact_every=2,
            workload_overrides=SMALL,
        )
        assert isinstance(report, ServeReport)
        assert report.ok, report.render()
        assert report.crashes_scheduled == 0
        assert report.compactions == 0
        assert report.pipeline.blocks == 4

    def test_unknown_backend_rejected_before_crash_checks(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_serve(blocks=3, backend="papyrus", check=True, crashes=1,
                      workload_overrides=SMALL)

    def test_deterministic_reports(self, tmp_path):
        kwargs = dict(
            blocks=5, txs_per_block=8, scenario="flash_loan",
            scheduler="serial", seed=9, backend="durable",
            workload_overrides=SMALL,
        )
        a = run_serve(durable_dir=str(tmp_path / "a"), **kwargs)
        b = run_serve(durable_dir=str(tmp_path / "b"), **kwargs)
        assert a.pipeline.txs == b.pipeline.txs
        assert a.pipeline.aborts == b.pipeline.aborts
        assert (a.pipeline.stages["persist"].items
                == b.pipeline.stages["persist"].items > 0)

    def test_memory_backend_rejects_crashes(self):
        with pytest.raises(ValueError, match="durable"):
            run_serve(blocks=3, backend="memory", check=True, crashes=1,
                      workload_overrides=SMALL)

    def test_crashes_without_check_rejected(self):
        with pytest.raises(ValueError, match="check"):
            run_serve(blocks=3, backend="durable", crashes=1,
                      workload_overrides=SMALL)


class TestProfileDB:
    def test_profile_db_persists_and_reloads(self, tmp_path):
        """Two serve runs against the same --profile-db: the first writes
        the learned store, the second boots from it and keeps learning
        (restart continuity for the lane planner)."""
        import json as _json

        from repro.scheduling import ConflictProfileStore

        path = tmp_path / "profiles.json"
        run_serve(
            blocks=4, txs_per_block=8, scenario="abort_storm",
            scheduler="dmvcc", threads=4, seed=23, backend="memory",
            workload_overrides=SMALL, profile_db=str(path),
        )
        assert path.exists()
        first = ConflictProfileStore.load(path)
        assert first.blocks_observed == 4

        run_serve(
            blocks=4, txs_per_block=8, scenario="abort_storm",
            scheduler="dmvcc", threads=4, seed=24, backend="memory",
            workload_overrides=SMALL, profile_db=str(path),
        )
        second = ConflictProfileStore.load(path)
        assert second.blocks_observed == 8  # resumed, not restarted
        payload = _json.loads(path.read_text())
        assert "keys" in payload

    def test_profile_db_with_oracle_check(self, tmp_path):
        """--check wraps the executor in the trace recorder; the planner's
        abort capture must still reach the inner executor's obs slot."""
        from repro.scheduling import ConflictProfileStore

        path = tmp_path / "checked-profiles.json"
        report = run_serve(
            blocks=3, txs_per_block=8, scenario="abort_storm",
            scheduler="dmvcc", threads=4, seed=29, backend="memory",
            check=True, workload_overrides=SMALL, profile_db=str(path),
        )
        assert report.ok, report.render()
        assert ConflictProfileStore.load(path).blocks_observed == 3

    def test_cli_profile_db_flag(self, tmp_path):
        path = tmp_path / "cli-profiles.json"
        code = main([
            "serve", "--blocks", "3", "--txs", "6", "--scenario", "mix",
            "--workers", "2", "--seed", "5", "--backend", "memory",
            "--users", "48", "--profile-db", str(path),
        ])
        assert code == 0
        assert path.exists()


class TestServeCLI:
    def test_cli_smoke(self, tmp_path, capsys):
        path = tmp_path / "serve-cli.json"
        code = main([
            "serve",
            "--blocks", "4",
            "--txs", "8",
            "--scenario", "mix",
            "--scheduler", "dmvcc",
            "--workers", "2",
            "--seed", "3",
            "--backend", "memory",
            "--users", "48",
            "--check",
            "--report", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert path.exists()

    def test_cli_crash_smoke(self, tmp_path):
        path = tmp_path / "serve-crash.json"
        code = main([
            "serve", "--blocks", "6", "--txs", "8", "--workers", "2",
            "--seed", "3", "--users", "48", "--crashes", "1",
            "--compact-every", "3", "--check", "--report", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["crashes"]["recovered"] == 1
        assert payload["compaction"]["runs"] == 2

    def test_cli_rejects_crashes_without_check(self, capsys):
        code = main(["serve", "--blocks", "3", "--crashes", "1"])
        assert code == 2
        assert "check" in capsys.readouterr().err

    def test_cli_rejects_unknown_scenario(self, capsys):
        code = main(["serve", "--scenario", "nope"])
        assert code != 0
        assert "unknown scenario" in capsys.readouterr().err
