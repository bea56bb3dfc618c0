"""CLI command tests (python -m repro ...)."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _subcommands() -> set[str]:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return set(sub.choices)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        assert _subcommands() == {
            "datasets", "estimate", "train", "predict", "compress", "bench",
            "store-pack", "store-info", "store-unpack", "trace-summary",
        }

    def test_store_pack_defaults_are_the_dataclass_defaults(self):
        """One owner per default: the parser reads them, it does not copy them."""
        from repro.api import ControlOptions, StoreOptions

        args = build_parser().parse_args(
            ["store-pack", "src", "--model", "m", "--ratio", "2", "--out", "o"]
        )
        control = ControlOptions()
        assert args.chunk_elements == StoreOptions().chunk_elements
        assert args.t2_std == control.t2_std
        assert args.t2_pressure == control.t2_pressure
        assert args.risk_budget == control.risk_budget
        assert args.refine_compressions == control.refine_compressions

    def test_docs_name_only_registered_commands(self):
        """Every ``python -m repro <word>`` in the docs, the CI workflow and
        the package docstrings is a subcommand that exists."""
        root = Path(__file__).resolve().parents[1]
        files = [
            root / "README.md",
            *sorted((root / "docs").glob("*.md")),
            root / ".claude/skills/verify/SKILL.md",
            root / ".github/workflows/ci.yml",
            *sorted((root / "src/repro").rglob("__init__.py")),
        ]
        named = {
            (path.relative_to(root).as_posix(), word)
            for path in files
            for word in re.findall(r"python -m repro ([a-z][a-z-]*)", path.read_text())
        }
        assert {word for _, word in named} >= {"train", "bench", "store-pack"}
        commands = _subcommands()
        unknown = sorted((f, w) for f, w in named if w not in commands)
        assert not unknown, f"docs name commands that do not exist: {unknown}"


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

    def test_unpack_rejects_an_original_of_the_wrong_size(self, store_env, tmp_path, capsys):
        """A RAW that cannot be the store's original is a usage error (2),
        not a bound violation (1) and not a traceback."""
        from repro import load_field

        _, _, _, store = store_env
        short = tmp_path / "short.f32"
        load_field("miranda/density", shape=(16, 16, 8)).data.tofile(short)
        assert main(["store-unpack", str(store), "--verify-against", str(short)]) == 2
        err = capsys.readouterr().err
        assert "8192 bytes" in err and "needs 16384" in err
        assert len(err.strip().splitlines()) == 1

    def test_unpack_rejects_a_missing_original(self, store_env, tmp_path, capsys):
        _, _, _, store = store_env
        absent = tmp_path / "absent.f32"
        assert main(["store-unpack", str(store), "--verify-against", str(absent)]) == 2
        err = capsys.readouterr().err
        assert str(absent) in err and len(err.strip().splitlines()) == 1

    def test_unpack_allows_dtype_rounding_and_no_more(self, store_env, tmp_path, capsys):
        """The read-back contract: the codec holds the bound in float64 and
        the store rounds to float32, so this field (values near 1e8, where
        a float32 ulp is 8) sits past its recorded bound without being a
        bad store; an element moved 2 x eb further out is one."""
        import numpy as np

        from repro import load_field
        from repro.store import Store

        _, model, _, _ = store_env
        data = load_field("nyx/velocity_x", shape=(16, 16, 16), seed=0).data
        raw, store = tmp_path / "vx.f32", tmp_path / "vx.rps"
        data.tofile(raw)
        assert main([
            "store-pack", str(raw), "--shape", "16", "16", "16",
            "--chunk", "8", "16", "16",
            "--model", str(model), "--ratio", "6", "--out", str(store),
        ]) == 0
        assert main(["store-unpack", str(store), "--verify-against", str(raw)]) == 0
        assert "within every chunk's recorded bound" in capsys.readouterr().out

        with Store(store) as st:
            back = st.read()
            eb = float(st.chunk_entry((0, 0, 0))["error_bound"])
        first = np.s_[:8]  # chunk (0, 0, 0)
        err = np.abs(back[first].astype(np.float64) - data[first])
        assert err.max() > eb  # the rounding really is past the bound here
        # Where float32 resolves 2 x eb: the chunk's smallest-magnitude element.
        idx = np.unravel_index(np.abs(data[first]).argmin(), data[first].shape)
        moved = data.copy()
        moved[idx] += 2 * eb if data[idx] >= back[idx] else -2 * eb
        moved.tofile(raw)
        assert main(["store-unpack", str(store), "--verify-against", str(raw)]) == 1
        assert "FAIL: chunk (0, 0, 0)" in capsys.readouterr().out


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
