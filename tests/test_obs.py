"""Observability subsystem: spans, recorder, summary, CLI."""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.trace import _NOOP_SPAN


@pytest.fixture(autouse=True)
def _observability_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        with obs.capture() as rec:
            with obs.span("outer", stage="collection"):
                with obs.span("inner.a"):
                    pass
                with obs.span("inner.b"):
                    pass
        assert [r.name for r in rec.roots] == ["outer"]
        assert [c.name for c in rec.roots[0].children] == ["inner.a", "inner.b"]
        assert rec.roots[0].attrs == {"stage": "collection"}

    def test_sibling_roots(self):
        with obs.capture() as rec:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        assert [r.name for r in rec.roots] == ["first", "second"]

    def test_elapsed_covers_children(self):
        with obs.capture() as rec:
            with obs.span("outer"):
                with obs.span("inner"):
                    sum(range(1000))
        outer, inner = rec.roots[0], rec.roots[0].children[0]
        assert outer.elapsed >= inner.elapsed >= 0.0

    def test_set_attaches_attributes_mid_span(self):
        with obs.capture() as rec:
            with obs.span("s") as sp:
                sp.set(bytes_out=42)
        assert rec.roots[0].attrs["bytes_out"] == 42


class TestDisabledMode:
    def test_span_returns_shared_noop(self):
        assert obs.span("a") is obs.span("b") is _NOOP_SPAN

    def test_noop_span_is_inert(self):
        with obs.span("ignored", x=1) as sp:
            assert sp.set(y=2) is sp
        assert sp.elapsed == 0.0
        assert sp.attrs == {}

    def test_nothing_recorded(self):
        with obs.span("ignored"):
            pass
        assert obs.get_recorder() is None

    def test_timed_span_still_times(self):
        with obs.timed_span("always") as sp:
            sum(range(1000))
        assert sp.elapsed > 0.0
        assert obs.get_recorder() is None

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        rec = obs.enable()
        assert obs.enabled() and obs.get_recorder() is rec
        assert obs.disable() is rec
        assert not obs.enabled()


class TestStageClock:
    """Per-tile stage timing aggregates into *one* span per stage — a
    fused loop over thousands of tiles must not emit thousands of spans."""

    def test_one_span_per_stage_with_call_counts(self):
        with obs.capture() as rec:
            clock = obs.StageClock("compressor.stage", codec="t")
            for _ in range(3):
                with clock("predict"):
                    pass
                with clock("encode"):
                    pass
            clock.add("encode", 0.5, calls=2)
            clock.emit(tiles=3)
        assert sorted(r.name for r in rec.roots) == [
            "compressor.stage.encode",
            "compressor.stage.predict",
        ]
        by_name = {r.name: r for r in rec.roots}
        predict = by_name["compressor.stage.predict"]
        assert predict.attrs["calls"] == 3
        assert predict.attrs["codec"] == "t"
        assert predict.attrs["tiles"] == 3
        encode = by_name["compressor.stage.encode"]
        assert encode.attrs["calls"] == 5  # 3 timed blocks + add(calls=2)
        assert encode.elapsed >= 0.5

    def test_emit_resets_the_clock(self):
        with obs.capture() as rec:
            clock = obs.StageClock("x")
            with clock("a"):
                pass
            clock.emit()
            clock.emit()  # nothing accumulated since the first emit
        assert len(rec.roots) == 1

    def test_noop_while_disabled(self):
        clock = obs.StageClock("x")
        with clock("a"):
            pass
        clock.add("b", 1.0)
        assert clock._seconds == {} and clock._calls == {}
        clock.emit()  # must not raise (and has nothing to emit)


class TestJsonRoundTrip:
    def test_export_and_load(self, tmp_path):
        with obs.capture() as rec:
            with obs.span("fit.collection", n_fields=3) as sp:
                with obs.span("collection.field", field="miranda/density"):
                    pass
                sp.set(numpy_attr=np.float64(1.5), arr=np.arange(2))
        path = obs.export_trace(tmp_path / "t.json", rec)
        payload = obs.load_trace(path)
        root = payload["spans"][0]
        assert root.name == "fit.collection"
        assert root.attrs["n_fields"] == 3
        assert root.attrs["numpy_attr"] == 1.5
        assert root.attrs["arr"] == [0, 1]
        assert root.children[0].attrs["field"] == "miranda/density"
        assert root.elapsed == pytest.approx(rec.roots[0].elapsed)

    def test_export_is_valid_json(self, tmp_path):
        with obs.capture() as rec:
            with obs.span("s"):
                pass
        path = obs.export_trace(tmp_path / "t.json", rec)
        raw = json.loads(path.read_text())
        assert raw["version"] == 1 and len(raw["spans"]) == 1
        assert set(raw) == {"version", "spans"}

    def test_trace_with_metrics_section_still_loads(self, tmp_path, capsys):
        """Traces written before the metrics registry was removed carry a
        ``"metrics"`` key; it is ignored, the spans load and summarize."""
        from repro.cli import main

        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "version": 1,
            "spans": [{"name": "fit.collection", "elapsed": 0.25, "attrs": {},
                       "children": [{"name": "collection.field", "elapsed": 0.1,
                                     "attrs": {}, "children": []}]}],
            "metrics": {
                "counters": {"collection.fields": 1.0},
                "gauges": {"serve.cache.size": 3.0},
                "histograms": {"compressor.compress.seconds": {
                    "count": 1, "total": 0.1, "mean": 0.1, "min": 0.1, "max": 0.1}},
            },
        }))
        payload = obs.load_trace(path)
        assert [s.name for s in payload["spans"]] == ["fit.collection"]
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fit.collection" in out and "collection.field" in out

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "spans": []}))
        with pytest.raises(ValueError, match="version"):
            obs.load_trace(path)


class TestThreadSafety:
    def test_concurrent_spans_and_counters(self):
        n_threads, per_thread = 8, 50
        rec = obs.enable()
        errors = []

        def work():
            try:
                for i in range(per_thread):
                    with obs.span("worker.span", i=i):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        obs.disable()
        assert not errors
        # spans opened on a thread with no enclosing span become roots
        assert len(rec.roots) == n_threads * per_thread
        # a call count is the number of spans of that name
        assert obs.aggregate(rec.roots)["worker.span"].count == n_threads * per_thread


class TestSummary:
    def test_aggregate_totals_and_self_time(self):
        with obs.capture() as rec:
            for _ in range(3):
                with obs.span("outer"):
                    with obs.span("inner"):
                        sum(range(200))
        stats = obs.aggregate(rec.roots)
        assert stats["outer"].count == 3
        assert stats["inner"].count == 3
        assert stats["outer"].total_seconds >= stats["inner"].total_seconds
        assert stats["outer"].self_seconds == pytest.approx(
            stats["outer"].total_seconds - stats["inner"].total_seconds, abs=1e-9
        )

    def test_format_summary_lists_stages_and_metrics(self):
        with obs.capture() as rec:
            with obs.span("fit.collection"):
                for _ in range(4):
                    with obs.span("collection.field"):
                        pass
        text = obs.format_summary(rec.roots)
        assert "fit.collection" in text
        for column in ("calls", "total(s)", "self(s)", "mean(ms)"):
            assert column in text
        row = next(ln for ln in text.splitlines() if ln.startswith("collection.field"))
        assert row.split()[1] == "4"  # the calls column counts the spans
        assert "metrics" not in text  # no trailing section: spans are the record

    def test_format_summary_empty_trace(self):
        assert "(no spans recorded)" in obs.format_summary([])


class TestPipelineIntegration:
    """Traces derived from real fits agree with the reports they feed."""

    def test_fit_spans_match_setup_report(self):
        from repro import CarolFramework, load_dataset

        fields = load_dataset("miranda", shape=(8, 12, 12))[:2]
        fw = CarolFramework(compressor="szx",
                            rel_error_bounds=np.geomspace(1e-3, 1e-1, 4),
                            n_iter=3, cv=2)
        with obs.capture() as rec:
            report = fw.fit(fields)
        stats = obs.aggregate(rec.roots)
        # same measurement object feeds both — agreement is exact, well
        # inside the 1% acceptance band
        assert stats["fit.collection"].total_seconds == pytest.approx(
            report.collection_seconds, rel=0.01
        )
        assert stats["fit.training"].total_seconds == pytest.approx(
            report.training_seconds, rel=0.01
        )
        # per-field and per-iteration spans nest under the stage spans
        assert stats["collection.field"].count == 2
        assert stats["training.iteration"].count == fw.model.info.n_evaluations
        it = next(
            s for r in rec.roots for s in _walk(r) if s.name == "training.iteration"
        )
        assert "params" in it.attrs and "score" in it.attrs

    def test_forest_fit_spans_say_where_training_went(self):
        from repro import CarolFramework, load_dataset

        fields = load_dataset("miranda", shape=(8, 12, 12))[:2]
        fw = CarolFramework(compressor="szx",
                            rel_error_bounds=np.geomspace(1e-3, 1e-1, 4),
                            n_iter=3, cv=2)
        with obs.capture() as rec:
            fw.fit(fields)
        fits = [s for r in rec.roots for s in _walk(r) if s.name == "training.forest_fit"]
        in_search = [
            s for r in rec.roots for it in _walk(r) if it.name == "training.iteration"
            for s in it.children if s.name == "training.forest_fit"
        ]
        # two folds for each of three candidates, then the winner's refit
        assert len(in_search) == 3 * 2 and len(fits) == len(in_search) + 1
        for s in fits:
            assert {"trees", "rows", "nodes", "rounds", "widest_round", "draws"} <= set(s.attrs)
            assert s.attrs["widest_round"] <= s.attrs["nodes"]
        forest = fw.model.forest
        refit = fits[-1].attrs
        assert refit["trees"] == len(forest.trees)
        assert refit["nodes"] == sum(tree.node_count for tree in forest.trees)
        assert refit["draws"] == (forest.max_features == "sqrt")
        if not refit["draws"]:  # such trees grow a level a round
            deepest = max(tree.depth for tree in forest.trees)
            assert deepest <= refit["rounds"] <= forest.max_depth
        assert "training.forest_fit" in obs.format_summary(rec.roots)

    def test_compressor_metrics_recorded(self):
        from repro import get_compressor

        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 8, 8))
        codec = get_compressor("szx")
        with obs.capture() as rec:
            result = codec.compress(data, 0.1)
            codec.decompress(result)
        # per-call quantities ride on the span that times the call; the
        # call count is the number of spans of that name
        stats = obs.aggregate(rec.roots)
        assert stats["compressor.compress"].count == 1
        assert stats["compressor.decompress"].count == 1
        spans = {s.name: s for r in rec.roots for s in _walk(r)}
        assert spans["compressor.compress"].attrs["bytes_in"] == data.nbytes
        assert spans["compressor.compress"].attrs["bytes_out"] == len(result.payload)
        assert spans["compressor.decompress"].attrs["bytes_in"] == result.compressed_bytes


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestCli:
    def test_train_trace_and_summary(self, tmp_path, capsys):
        from repro.cli import main

        model = tmp_path / "m.npz"
        trace = tmp_path / "t.json"
        rc = main([
            "train", "--datasets", "miranda", "--shape", "8", "12", "12",
            "--compressor", "szx", "--out", str(model), "-n", "4", "--iters", "3",
            "--trace", str(trace),
        ])
        assert rc == 0
        assert trace.exists()
        assert not obs.enabled()  # CLI turns observability back off
        capsys.readouterr()

        rc = main(["trace-summary", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        for stage in ("fit.collection", "fit.training", "collection.field",
                      "compressor.compress"):
            assert stage in out

    def test_trace_summary_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["trace-summary", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err
