"""CLI command tests (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert set(sub.choices) >= {
            "datasets", "estimate", "train", "predict", "compress", "bench",
            "serve-bench", "store-pack", "store-info", "store-unpack",
            "pack-bench", "codec-bench", "read-bench", "load-bench", "trace-summary",
        }


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("miranda", "nyx", "cesm", "hurricane", "hcci", "mrs"):
            assert name in out


class TestEstimate:
    def test_prints_curve(self, capsys):
        rc = main([
            "estimate", "miranda/viscosity", "--shape", "12", "16", "16",
            "--compressor", "szx", "--mode", "full", "-n", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "error_bound" in out
        assert len([l for l in out.splitlines() if not l.startswith("#")]) >= 5

    def test_calibrated_mode(self, capsys):
        rc = main([
            "estimate", "hcci/oh", "--shape", "12", "16", "16",
            "--compressor", "sperr", "--mode", "calibrated", "-n", "5",
            "--calibration-points", "3",
        ])
        assert rc == 0


class TestTrainPredictCompress:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        rc = main([
            "train", "--datasets", "miranda", "--shape", "12", "16", "16",
            "--compressor", "szx", "--out", str(path), "-n", "5", "--iters", "4",
        ])
        assert rc == 0
        return path

    def test_predict(self, model_path, capsys):
        rc = main([
            "predict", "--model", str(model_path), "--ratio", "6",
            "miranda/pressure", "--shape", "12", "16", "16",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted error bound" in out

    def test_compress_writes_payload(self, model_path, tmp_path, capsys):
        out_file = tmp_path / "payload.bin"
        rc = main([
            "compress", "--model", str(model_path), "--ratio", "6",
            "miranda/pressure", "--shape", "12", "16", "16",
            "--out", str(out_file),
        ])
        assert rc == 0
        assert out_file.exists() and out_file.stat().st_size > 0
        out = capsys.readouterr().out
        assert "achieved ratio" in out


class TestBench:
    def test_unknown_experiment_lists_available(self, capsys):
        rc = main(["bench", "fig99_nothing"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fig2_surrogate_curves" in err


class TestStoreCommands:
    @pytest.fixture(scope="class")
    def store_env(self, tmp_path_factory):
        """Train a chunk-sized model, write a raw field, pack it."""
        from repro import load_field

        d = tmp_path_factory.mktemp("store_cli")
        model = d / "model.npz"
        assert main([
            "train", "--datasets", "miranda", "--shape", "8", "16", "16",
            "--compressor", "szx", "--out", str(model),
            "--eb-min", "1e-3", "--eb-max", "3e-1", "-n", "6", "--iters", "5",
        ]) == 0
        raw = d / "pressure.f32"
        load_field("miranda/pressure", shape=(16, 16, 16), seed=3).data.tofile(raw)
        store = d / "pressure.rps"
        assert main([
            "store-pack", str(raw), "--shape", "16", "16", "16",
            "--chunk", "8", "16", "16",
            "--model", str(model), "--ratio", "6", "--out", str(store),
        ]) == 0
        return d, model, raw, store

    def test_pack_compresses_the_raw_file(self, store_env):
        _, _, raw, store = store_env
        assert store.stat().st_size < raw.stat().st_size

    def test_pack_synthetic_source(self, store_env, tmp_path, capsys):
        _, model, _, _ = store_env
        rc = main([
            "store-pack", "miranda/viscosity", "--shape", "16", "16", "16",
            "--model", str(model), "--ratio", "5",
            "--out", str(tmp_path / "v.rps"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "achieved" in out and "chunks" in out

    def test_raw_source_requires_shape(self, store_env, tmp_path):
        _, model, raw, _ = store_env
        with pytest.raises(SystemExit, match="--shape"):
            main([
                "store-pack", str(raw), "--model", str(model),
                "--ratio", "6", "--out", str(tmp_path / "x.rps"),
            ])

    def test_info(self, store_env, capsys):
        _, _, _, store = store_env
        assert main(["store-info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "achieved_ratio" in out
        assert "szx" in out
        assert "(16, 16, 16)" in out

    def test_info_chunk_listing(self, store_env, capsys):
        _, _, _, store = store_env
        assert main(["store-info", str(store), "--chunks"]) == 0
        out = capsys.readouterr().out
        assert "(0, 0, 0)" in out and "(1, 0, 0)" in out

    def test_unpack_verifies_against_original(self, store_env, tmp_path, capsys):
        _, _, raw, store = store_env
        out_file = tmp_path / "roundtrip.f32"
        rc = main([
            "store-unpack", str(store), "--out", str(out_file),
            "--verify-against", str(raw),
        ])
        assert rc == 0
        assert out_file.stat().st_size == raw.stat().st_size
        assert "within every chunk's recorded bound" in capsys.readouterr().out

    def test_unpack_flags_bound_violations(self, store_env, tmp_path, capsys):
        from repro import load_field

        _, _, _, store = store_env
        other = tmp_path / "other.f32"
        load_field("miranda/density", shape=(16, 16, 16), seed=9).data.tofile(other)
        rc = main(["store-unpack", str(store), "--verify-against", str(other)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestStorePackWorkers:
    def test_parallel_pack_matches_serial_bytes(self, tmp_path, capsys):
        """store-pack --workers N writes the same bytes as the serial pack
        at the same wave size (the CLI face of wave determinism)."""
        model = tmp_path / "model.npz"
        assert main([
            "train", "--datasets", "miranda", "--shape", "8", "16", "16",
            "--compressor", "szx", "--out", str(model),
            "--eb-min", "1e-3", "--eb-max", "3e-1", "-n", "5", "--iters", "4",
        ]) == 0
        blobs = {}
        for workers in (0, 2):
            out = tmp_path / f"w{workers}.rps"
            assert main([
                "store-pack", "miranda/pressure", "--shape", "16", "16", "16",
                "--chunk", "8", "16", "16", "--model", str(model),
                "--ratio", "6", "--out", str(out),
                "--workers", str(workers), "--wave-size", "2",
            ]) == 0
            blobs[workers] = out.read_bytes()
        assert blobs[2] == blobs[0]


class TestPackBench:
    def test_trains_packs_and_verifies_determinism(self, tmp_path, capsys):
        rc = main([
            "pack-bench", "miranda/viscosity", "--shape", "16", "16", "16",
            "--train-shape", "8", "16", "16", "--chunk", "8", "16", "16",
            "--compressor", "szx", "--workers", "2", "--ratio", "5",
            "--out-dir", str(tmp_path), "-n", "5", "--iters", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        assert "speedup" in out
        assert (tmp_path / "pack-bench-w1.rps").exists()
        assert (tmp_path / "pack-bench-w2.rps").exists()

    def test_min_speedup_gate_can_fail(self, tmp_path, capsys):
        """An absurd --min-speedup must flip the exit code (the byte check
        itself still passes)."""
        rc = main([
            "pack-bench", "miranda/viscosity", "--shape", "16", "16", "16",
            "--train-shape", "8", "16", "16", "--chunk", "8", "16", "16",
            "--compressor", "szx", "--workers", "2", "--ratio", "5",
            "--out-dir", str(tmp_path), "-n", "5", "--iters", "3",
            "--min-speedup", "1e9",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "byte-identical" in out
        assert "below required" in out


class TestCodecBench:
    def test_check_mode_gates_without_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["codec-bench", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        for row in ("sz3_lossless", "szx", "sz3_lorenzo", "sperr"):
            assert row in out
        assert "DIVERGED" not in out and "EXCEEDED" not in out
        assert "report written" not in out
        assert not list(tmp_path.glob("BENCH_codec.json"))

    def test_failure_message_names_what_failed(self, capsys, monkeypatch):
        """A compressor-only failure used to print an empty name list."""
        from repro.bench import codec_bench

        real = codec_bench.run_codec_bench

        def broken(*args, **kwargs):
            report = real(*args, **kwargs)
            report["compressors"]["szx"]["within_bound"] = False
            return report

        monkeypatch.setattr(codec_bench, "run_codec_bench", broken)
        rc = main(["codec-bench", "--check"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL: round trip exceeds the error bound in: szx" in out
        assert "byte divergence" not in out

    def test_report_has_absolute_compressor_rows_and_keeps_history(self, tmp_path):
        import json

        report_path = tmp_path / "BENCH_codec.json"
        history = [{"commit": "0000000", "note": "kept"}]
        report_path.write_text(
            json.dumps({"schema": "repro.codec-bench/v1", "history": history})
        )
        rc = main([
            "codec-bench", "--shape", "12", "12", "12", "--reps", "1",
            "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["history"] == history
        for row in report["compressors"].values():
            assert set(row) == {
                "input_bytes", "payload_bytes", "ratio", "compress_mbps",
                "decompress_mbps", "peak_bytes", "stages", "within_bound",
            }
            assert row["within_bound"] is True


class TestReadBench:
    def test_check_mode_gates_identity_without_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # any accidental report write lands here
        rc = main([
            "read-bench", "--check", "--train-shape", "8", "8", "8",
            "-n", "5", "--iters", "3", "--workers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for config in ("serial", "cached", "parallel+cache"):
            assert config in out
        assert "pooled" in out and "FAIL" not in out  # workers were reached
        assert "DIVERGED" not in out
        assert "report written" not in out
        assert not list(tmp_path.glob("BENCH_read.json"))

    def test_check_mode_fails_when_workers_get_nothing(self, capsys, monkeypatch):
        # The gate must not go vacuous: if the check fixture's chunks ever
        # fall below the pool threshold, --check says so instead of passing.
        import repro.store.reader as reader_mod

        monkeypatch.setattr(reader_mod, "POOL_MIN_CHUNK_BYTES", 1 << 30)
        rc = main([
            "read-bench", "--check", "--train-shape", "8", "8", "8",
            "-n", "5", "--iters", "3", "--workers", "2",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "no decode reached them in: parallel+cache, streaming" in out

    def test_rewritten_report_keeps_the_old_numbers_as_history(self, tmp_path):
        from repro.bench.read_bench import SCHEMA, load_report, write_report

        def report(commit, mbps):
            return {
                "schema": SCHEMA, "commit": commit, "generated_utc": "t",
                "configs": {"serial": {"bytes_per_s": mbps}},
                "streaming": {"bytes_per_s": 2 * mbps, "time_to_first_tile_s": 0.5},
            }

        path = tmp_path / "BENCH_read.json"
        for commit, mbps in (("aaa", 1.0), ("bbb", 2.0), ("ccc", 3.0)):
            write_report(report(commit, mbps), path)
        final = load_report(path)
        assert final["commit"] == "ccc"
        assert [h["commit"] for h in final["history"]] == ["aaa", "bbb"]
        assert final["history"][1]["bytes_per_s"] == {"serial": 2.0, "streaming": 4.0}

    def test_writes_report_with_throughput_and_hit_rate(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "BENCH_read.json"
        rc = main([
            "read-bench", "--train-shape", "8", "8", "8", "-n", "5",
            "--iters", "3", "--stores", "2", "--shape", "16", "16", "16",
            "--chunk", "8", "8", "8", "--reads", "10",
            "--read-shape", "8", "8", "8", "--workers", "0",
            "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.read-bench/v1"
        assert report["identical"] is True
        for config in ("serial", "cached", "parallel+cache"):
            assert report["configs"][config]["bytes_per_s"] > 0
            assert 0.0 <= report["configs"][config]["cache_hit_rate"] <= 1.0
        assert report["configs"]["serial"]["cache_hit_rate"] == 0.0
        assert report["configs"]["cached"]["cache_hit_rate"] > 0.0


class TestLoadBench:
    def test_check_mode_gates_identity_without_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # any accidental report write lands here
        rc = main([
            "load-bench", "--check", "--train-shape", "8", "12", "12",
            "-n", "4", "--iters", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity gate" in out
        assert "bitwise-identical" in out
        assert "DIVERGED" not in out
        assert "report written" not in out
        assert not list(tmp_path.glob("BENCH_serve.json"))

    def test_writes_report_with_saturation_scan(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "BENCH_serve.json"
        rc = main([
            "load-bench", "--train-shape", "8", "12", "12", "-n", "4",
            "--iters", "3", "--shape", "8", "12", "12", "--fields", "2",
            "--requests", "12", "--reps", "1", "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.load-bench/v1"
        assert report["identical"] is True
        assert report["capacity_rps"] > 0
        scenarios = {r["scenario"] for r in report["runs"]}
        assert any(s.startswith("open-poisson@") for s in scenarios)
        assert any(s.startswith("closed-") for s in scenarios)
        for row in report["runs"]:
            assert row["completed"] + row["rejected"] == row["requests"]
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        assert report["saturation"]["levels"]


class TestServeBench:
    def test_trains_and_benches(self, capsys):
        rc = main([
            "serve-bench", "--shape", "10", "12", "12", "--requests", "30",
            "--fields", "3", "--batch", "8", "-n", "4", "--iters", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "bitwise-identical" in out
        assert "hit rate" in out

    def test_loads_saved_model(self, tmp_path, capsys):
        path = tmp_path / "m.npz"
        assert main([
            "train", "--datasets", "miranda", "--shape", "10", "12", "12",
            "--compressor", "szx", "--out", str(path), "-n", "4", "--iters", "3",
        ]) == 0
        capsys.readouterr()
        rc = main([
            "serve-bench", "--model", str(path), "--shape", "10", "12", "12",
            "--requests", "20", "--fields", "2", "--batch", "5",
        ])
        assert rc == 0
        assert "bitwise-identical" in capsys.readouterr().out
