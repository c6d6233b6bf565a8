import json
import re
from pathlib import Path

import numpy as np
import pytest

from fuzzterm import (
    RunConfig,
    generate_corpus,
    load_bundled,
    load_config,
    load_kb,
    load_manifest,
    run,
    pipeline,
    tune_afcc,
)
from fuzzterm.cli import main
from fuzzterm.cluster import CategoryScore, F1Report
from fuzzterm.errors import EmptyDocument, StageError
from fuzzterm.pipeline import (
    ExperimentReport,
    RunRecord,
    SignificanceRecord,
    build_corpus,
    corpus_profiles,
    render_results,
    render_table,
)
from fuzzterm.reduction import mft_rank
from fuzzterm.stats import TTestResult
from fuzzterm.weighting import fuzzy_rows, global_positions


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    generate_corpus(
        out, categories=2, docs_per_category=8, mode="zipf", seed=3, doc_length=(30, 60)
    )
    return out


def write_config(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadConfig:
    def test_parses_fields_and_resolves_paths(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("", encoding="utf-8")
        cfg_path = write_config(
            tmp_path / "exp.cfg",
            [
                "# experiment",
                "manifest = manifest.tsv",
                "representation = afcc",
                "vector_sizes = 100, 500",
                "k = 3",
                "seed = 9",
                "out_dir = results",
                "n_subsets = 4",
                "fraction = 0.5",
                "baselines = efcc tfidf",
                "dump_vectors = yes",
            ],
        )
        cfg = load_config(cfg_path)
        assert cfg.manifest == manifest.resolve()
        assert cfg.representation == "afcc"
        assert cfg.vector_sizes == (100, 500)
        assert cfg.k == 3
        assert cfg.seed == 9
        assert cfg.out_dir == (tmp_path / "results").resolve()
        assert cfg.n_subsets == 4
        assert cfg.baselines == ("efcc", "tfidf")
        assert cfg.dump_vectors is True
        assert cfg.dump_features is False

    def test_defaults(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "exp.cfg", ["manifest = manifest.tsv"])
        )
        assert cfg.representation == "efcc"
        assert cfg.vector_sizes == (100, 500, 1000, 2000, 5000)
        assert cfg.k is None
        assert cfg.n_subsets == 0

    def test_missing_manifest_key(self, tmp_path):
        with pytest.raises(ValueError, match="must set 'manifest'"):
            load_config(write_config(tmp_path / "exp.cfg", ["seed = 1"]))

    def test_bad_boolean(self, tmp_path):
        with pytest.raises(ValueError, match="boolean"):
            load_config(
                write_config(
                    tmp_path / "exp.cfg",
                    ["manifest = m.tsv", "dump_vectors = maybe"],
                )
            )

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ValueError, match="key = value"):
            load_config(write_config(tmp_path / "exp.cfg", ["manifest m.tsv"]))

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path / "exp.cfg", ["manifest = hash#dir/manifest.tsv"])
        )
        assert cfg.manifest == (tmp_path / "hash#dir" / "manifest.tsv").resolve()

    def test_comment_after_a_value(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "exp.cfg",
                ["manifest = manifest.tsv  # the corpus", "seed = 3\t# run seed"],
            )
        )
        assert cfg.manifest == (tmp_path / "manifest.tsv").resolve()
        assert cfg.seed == 3

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["k = four"], "{cfg}: k must be an integer, got 'four'"),
            (["seed = 1.5"], "{cfg}: seed must be an integer, got '1.5'"),
            (["n_subsets = some"], "{cfg}: n_subsets must be an integer, got 'some'"),
            (["fraction = half"], "{cfg}: fraction must be a number, got 'half'"),
            (
                ["vector_sizes = 100, 5x"],
                "{cfg}: vector_sizes must be a list of integers, got '100, 5x'",
            ),
            (["dump_features = maybe"], "{cfg}: dump_features must be a boolean, got 'maybe'"),
            (["seed = 1", "# again", "seed = 2"], "{cfg}:4: seed is set twice"),
            (["vector_sizes ="], "{cfg}: vector_sizes must be a list of integers, got ''"),
        ],
    )
    def test_bad_value_names_file_and_key(self, lines, message, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg", ["manifest = m.tsv", *lines])
        message = message.format(cfg=cfg)
        with pytest.raises(ValueError) as exc:
            load_config(cfg)
        assert str(exc.value) == message
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error[config]: {message}\n"

    def test_readme_example(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"cat > /tmp/run.cfg <<EOF\n(.*?)\nEOF\n", readme, re.S)
        cfg = load_config(write_config(tmp_path / "run.cfg", example[1].splitlines()))
        assert cfg.manifest == Path("/tmp/corpus/manifest.tsv").resolve()
        assert (cfg.representation, cfg.vector_sizes, cfg.k) == ("afcc", (100, 500), 4)
        assert cfg.baselines == ("efcc", "tfidf") and cfg.n_subsets == 10
        for key in pipeline._CONFIG_KEYS:
            assert f"| `{key}` |" in readme

    def test_unknown_key_rejected(self, tmp_path):
        # a typo must not silently fall back to defaults
        with pytest.raises(ValueError, match="unknown config keys: sizes"):
            load_config(
                write_config(
                    tmp_path / "exp.cfg",
                    ["manifest = m.tsv", "sizes = 100, 500"],
                )
            )


class TestRunConfigValidation:
    def test_unknown_representation(self):
        with pytest.raises(ValueError, match="unknown representation"):
            RunConfig(manifest="m.tsv", representation="bm25").validate()

    def test_unknown_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            RunConfig(manifest="m.tsv", baselines=("bm25",), n_subsets=2).validate()

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            RunConfig(manifest="m.tsv", vector_sizes=(500, 100)).validate()

    def test_sizes_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            RunConfig(manifest="m.tsv", vector_sizes=(100, 100)).validate()

    def test_subsets_need_baselines(self):
        with pytest.raises(ValueError, match="baselines"):
            RunConfig(manifest="m.tsv", n_subsets=5).validate()

    def test_anchor_variant_any_case(self, tmp_path):
        RunConfig(manifest="m.tsv", anchor_variant="B1", anchors_dir=tmp_path).validate()

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"representation": "afcc", "baselines": ("efcc", "efcc"), "n_subsets": 3},
                "baselines must be distinct, got efcc, efcc",
            ),
            (
                {"representation": "afcc", "baselines": ("afcc",), "n_subsets": 3},
                "significance requested but no baselines other than 'afcc' given",
            ),
            (
                {"anchor_variant": "zz", "anchors_dir": Path("anchors")},
                "unknown anchor variant 'zz'; choose from ('a1', 'a2', 'a3', 'b1', 'b2', 'b3')",
            ),
            ({"anchor_variant": "b1"}, "anchor_variant needs an existing anchors_dir, got None"),
            (
                {"anchor_variant": "b1", "anchors_dir": Path("no-such-dir")},
                "anchor_variant needs an existing anchors_dir, got no-such-dir",
            ),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_rejected_at_config_stage(self, changes, message, small_corpus, tmp_path):
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv", vector_sizes=(10,), out_dir=tmp_path, **changes
        )
        with pytest.raises(StageError) as exc:
            run(config)
        assert (exc.value.stage, exc.value.detail) == ("config", message)


class TestRun:
    def test_tfidf_single_size_single_record(self, corpus_dir_200, tmp_path):
        config = RunConfig(
            manifest=corpus_dir_200 / "manifest.tsv",
            representation="tfidf",
            vector_sizes=(100,),
            seed=1,
            out_dir=tmp_path,
        )
        report = run(config)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.representation == "tfidf"
        assert rec.vector_size == 100
        assert rec.k == 4
        assert 0.0 <= rec.report.overall <= 1.0
        assert report.results_path.is_file()
        assert report.table_path.is_file()
        assert "tfidf" in report.table_path.read_text(encoding="utf-8")

    def test_criteria_counted_by_extract_criteria_once_per_document(
        self, small_corpus, tmp_path, monkeypatch
    ):
        # the run reads every document's criteria through this one public
        # function, so a wrapper around it sees each document and its pairs
        calls, extract = [], pipeline.extract_criteria

        def counting(stream):
            calls.append(extract(stream))
            return calls[-1]

        monkeypatch.setattr(pipeline, "extract_criteria", counting)
        manifest = load_manifest(small_corpus / "manifest.tsv")
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv", vector_sizes=(20,), out_dir=tmp_path
        )
        corpus = pipeline.build_corpus(manifest, config)
        assert len(calls) == len(manifest) == corpus.n_docs
        assert sum(len(c) for c in calls) == corpus.n_pairs
        assert sum(len(t.positions) for c in calls for t in c.values()) == corpus.positions.size
        calls.clear()
        run(config)
        assert len(calls) == len(manifest)

    def test_results_file_structure(self, small_corpus, tmp_path):
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv",
            representation="efcc",
            vector_sizes=(20, 50),
            seed=2,
            out_dir=tmp_path,
        )
        report = run(config)
        lines = report.results_path.read_text(encoding="utf-8").splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["config", "run", "run"]
        run_rec = json.loads(lines[1])
        assert run_rec["vector_size"] == 20
        assert set(run_rec["per_category"]) == {"aqua", "blaze"}

    def test_afcc_writes_replayable_tuned_kb(self, small_corpus, tmp_path):
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv",
            representation="afcc",
            vector_sizes=(30,),
            seed=4,
            out_dir=tmp_path,
        )
        # the small corpus's emphasis pool gives tied tuned edges
        with pytest.warns(UserWarning, match="nudged"):
            report = run(config)
        assert report.tuned_kb_path == tmp_path / "afcc.tuned.kb"
        replayed = load_kb(report.tuned_kb_path)
        assert replayed.name == "afcc"
        assert replayed.flags == ("tuned",)
        # replaying the dumped base reproduces the pipeline's weights exactly
        corpus = build_corpus(load_manifest(config.manifest), config)
        with pytest.warns(UserWarning, match="nudged"):
            fresh = tune_afcc(load_bundled("efcc"), corpus_profiles(corpus))
        every = np.arange(corpus.n_docs)
        w_replay, w_fresh = (
            fuzzy_rows(corpus, every, kb, global_positions(corpus, kb)) for kb in (replayed, fresh)
        )
        assert w_replay.weights.size > 0
        assert w_replay.weights.tobytes() == w_fresh.weights.tobytes()
        assert w_replay.offsets.tolist() == w_fresh.offsets.tolist()

    def test_significance_cardinality(self, small_corpus, tmp_path):
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv",
            representation="efcc",
            vector_sizes=(20, 40),
            seed=5,
            out_dir=tmp_path,
            n_subsets=3,
            baselines=("tfidf",),
        )
        report = run(config)
        assert len(report.significance) == 2  # one per size
        for sig in report.significance:
            assert sig.a == "efcc"
            assert sig.b == "tfidf"
            assert sig.n_subsets == 3
            assert sig.result.df == 2
        assert len(report.subset_scores[("efcc", 20)]) == 3
        assert len(report.subset_scores[("tfidf", 40)]) == 3
        text = report.table_path.read_text(encoding="utf-8")
        assert "paired t-tests" in text
        kinds = [
            json.loads(line)["kind"]
            for line in report.results_path.read_text(encoding="utf-8").splitlines()
        ]
        assert kinds.count("ttest") == 2
        assert kinds.count("subset_scores") == 4

    def test_rerun_is_byte_identical(self, small_corpus, tmp_path):
        def one(out):
            return run(
                RunConfig(
                    manifest=small_corpus / "manifest.tsv",
                    representation="efcc",
                    vector_sizes=(25,),
                    seed=6,
                    out_dir=out,
                    n_subsets=2,
                    baselines=("tfidf",),
                )
            )

        a = one(tmp_path / "a")
        b = one(tmp_path / "b")
        assert a.results_path.read_bytes() == b.results_path.read_bytes()
        assert a.table_path.read_bytes() == b.table_path.read_bytes()

    def test_dump_flags_write_files(self, small_corpus, tmp_path):
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv",
            representation="efcc",
            vector_sizes=(15, 40),
            seed=0,
            out_dir=tmp_path,
            dump_vectors=True,
            dump_features=True,
        )
        run(config)
        # the dumps hold the run's weights and MFT order, byte for byte
        corpus = build_corpus(load_manifest(config.manifest), config)
        kb = load_bundled("efcc")
        rows = fuzzy_rows(corpus, np.arange(corpus.n_docs), kb, global_positions(corpus, kb))
        lines = []
        ids = rows.term_ids.tolist()
        for d, doc_id in enumerate(corpus.doc_ids):
            # in term order, which is vocabulary order
            span = sorted(range(rows.offsets[d], rows.offsets[d + 1]), key=ids.__getitem__)
            pairs = [f"{corpus.vocab[rows.term_ids[i]]}:{rows.weights[i]:.6g}" for i in span]
            lines.append(" ".join([doc_id, *pairs]))
        vectors = (tmp_path / "vectors.txt").read_text(encoding="utf-8")
        assert vectors == "\n".join(lines) + "\n"
        order = [corpus.vocab[t] for t in mft_rank(rows)]
        for size in config.vector_sizes:
            features = (tmp_path / f"features_{size}.txt").read_text(encoding="utf-8")
            assert features == "".join(f"{term}\n" for term in order[:size])
            assert len(features.splitlines()) == size

    def test_missing_manifest_tagged_ingest(self, tmp_path):
        config = RunConfig(manifest=tmp_path / "nope.tsv", out_dir=tmp_path)
        with pytest.raises(StageError) as exc:
            run(config)
        assert exc.value.stage == "ingest"

    def test_oversized_k_tagged_cluster(self, small_corpus, tmp_path):
        # 12 clusters fit the 16 documents, which ingest checks, but only
        # 8 of them weigh the top-ranked feature
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv",
            representation="efcc",
            vector_sizes=(1,),
            k=12,
            out_dir=tmp_path,
        )
        with pytest.raises(StageError, match="only 8 non-zero documents for k=12") as exc:
            run(config)
        assert exc.value.stage == "cluster"


class TestCriteriaErrors:
    @pytest.fixture
    def stopword_page(self, tmp_path):
        corpus = tmp_path / "corpus"
        generate_corpus(
            corpus, categories=2, docs_per_category=3, mode="zipf", seed=1, doc_length=(20, 30)
        )
        entry = load_manifest(corpus / "manifest.tsv").entries[4]
        entry.path.write_text(
            "<html><head><title>The</title></head><body><p>and of the</p></body></html>",
            encoding="utf-8",
        )
        return corpus / "manifest.tsv", entry

    def test_stopword_only_page_names_the_document(self, stopword_page, tmp_path):
        manifest, entry = stopword_page
        with pytest.raises(StageError) as exc:
            run(RunConfig(manifest=manifest, vector_sizes=(10,), out_dir=tmp_path / "out"))
        assert exc.value.stage == "criteria"
        assert isinstance(exc.value.original, EmptyDocument)
        assert str(exc.value) == (
            f"[criteria] {entry.doc_id} ({entry.path}): "
            "document yields no tokens after filtering"
        )

    def test_cli_names_the_document(self, stopword_page, tmp_path, capsys):
        manifest, entry = stopword_page
        cfg = write_config(
            tmp_path / "exp.cfg", [f"manifest = {manifest}", "vector_sizes = 10"]
        )
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error[criteria]: {entry.doc_id} ({entry.path}): document yields" in err


class TestGenerateCorpus:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"docs_per_category": 0}, "docs_per_category must be at least 1"),
            ({"title_rhetoric": -1}, "title_rhetoric must be in 0..40"),
            ({"title_rhetoric": 5, "rhetoric_vocab": 4}, "title_rhetoric must be in 0..4"),
            ({"topic_fraction": 1.5}, "topic_fraction must be in [0, 1]"),
            ({"topic_fraction": float("nan")}, "topic_fraction must be in [0, 1]"),
            ({"emphasis_prob": -0.1}, "emphasis_prob must be in [0, 1]"),
        ],
    )
    def test_rejects_out_of_range_before_writing(self, kwargs, message, tmp_path):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_corpus(tmp_path / "corpus", **kwargs)
        assert not (tmp_path / "corpus").exists()

    def test_accepts_range_bounds(self, tmp_path):
        manifest = generate_corpus(
            tmp_path / "corpus",
            categories=1,
            docs_per_category=1,
            doc_length=(10, 10),
            title_rhetoric=40,
            topic_fraction=1.0,
            emphasis_prob=0.0,
        )
        assert len(load_manifest(manifest).entries) == 1


class TestCli:
    def test_kb_check_bundled(self, capsys):
        assert main(["kb-check", "fcc", "addfcc", "efcc", "emph", "--grid", "9"]) == 0
        out = capsys.readouterr().out
        assert "fcc: complete" in out

    def test_kb_check_file(self, tmp_path, capsys):
        from fuzzterm import dump_kb, load_bundled

        path = tmp_path / "copy.kb"
        dump_kb(load_bundled("emph"), path)
        assert main(["kb-check", str(path), "--grid", "9"]) == 0

    def test_kb_check_failure(self, tmp_path, capsys):
        assert main(["kb-check", str(tmp_path / "ghost.kb")]) == 1
        assert "error" in capsys.readouterr().err

    def test_kb_check_empty_header(self, tmp_path, capsys):
        path = tmp_path / "bad.kb"
        path.write_text("[meta]\nname bad\n[]\n", encoding="utf-8")
        assert main(["kb-check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: empty section header\n"

    @pytest.mark.parametrize("grid", ["0", "-1", "1"])
    def test_kb_check_rejects_small_grid(self, grid, capsys):
        assert main(["kb-check", "emph", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid_per_axis must be at least 2, got {grid}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--categories", "0"], "categories must be in 1..12"),
            (["--doc-length", "5", "1"], "doc_length must be (lo, hi) with 10 <= lo <= hi"),
            (["--docs-per-category", "0"], "docs_per_category must be at least 1"),
            (["--title-rhetoric", "41"], "title_rhetoric must be in 0..40"),
            (["--emphasis-prob", "2"], "emphasis_prob must be in [0, 1]"),
        ],
    )
    def test_gen_corpus_rejects_bad_arguments(self, argv, message, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["gen-corpus", str(corpus), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not corpus.exists()

    def test_gen_corpus_and_run(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert (
            main(
                [
                    "gen-corpus",
                    str(corpus),
                    "--categories",
                    "2",
                    "--docs-per-category",
                    "6",
                    "--doc-length",
                    "20",
                    "40",
                    "--seed",
                    "8",
                ]
            )
            == 0
        )
        assert (corpus / "manifest.tsv").is_file()
        cfg = write_config(
            tmp_path / "exp.cfg",
            [
                "manifest = corpus/manifest.tsv",
                "representation = tfidf",
                "vector_sizes = 20",
                "out_dir = out",
            ],
        )
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "results:" in out
        assert (tmp_path / "out" / "results.jsonl").is_file()

    def test_run_out_dir_override(self, small_corpus, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            [
                f"manifest = {small_corpus / 'manifest.tsv'}",
                "representation = tfidf",
                "vector_sizes = 10",
            ],
        )
        override = tmp_path / "elsewhere"
        assert main(["run", str(cfg), "--out-dir", str(override)]) == 0
        assert (override / "results.jsonl").is_file()

    def test_run_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "exp.cfg",
            ["manifest = m.tsv", "representation = bm25"],
        )
        assert main(["run", str(cfg)]) == 1
        assert "error[config]" in capsys.readouterr().err

    def test_run_single_subset_rejected_at_config(self, small_corpus, tmp_path, capsys):
        # a t-test needs two paired scores; one subset must not be weighed
        # and clustered before the run fails
        cfg = write_config(
            tmp_path / "exp.cfg",
            [
                f"manifest = {small_corpus / 'manifest.tsv'}",
                "representation = afcc",
                "baselines = efcc",
                "vector_sizes = 10",
                "n_subsets = 1",
            ],
        )
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == "error[config]: n_subsets must be 0 or at least 2, got 1\n"
        assert not (tmp_path / "results.jsonl").exists()

    @staticmethod
    def significance_config(path, manifest, *extra):
        return write_config(
            path,
            [
                f"manifest = {manifest}",
                "representation = afcc",
                "baselines = efcc",
                "vector_sizes = 10",
                "n_subsets = 3",
                *extra,
            ],
        )

    def test_run_one_document_category_rejected_at_ingest(self, small_corpus, tmp_path, capsys):
        # subsets draw from every category; a category of one document
        # shows in the manifest, before any document is read
        lines = []
        for line in (small_corpus / "manifest.tsv").read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                doc_id, rel, category = line.split("\t")
                lines.append(f"{doc_id}\t{small_corpus / rel}\t{category}")
        doc_id, path, _ = lines[0].split("\t")
        lines.append(f"{doc_id}-solo\t{path}\tsolo")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = self.significance_config(tmp_path / "exp.cfg", manifest, "out_dir = out")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == "error[ingest]: category 'solo' has 1 document(s)\n"
        assert not (tmp_path / "out" / "results.jsonl").exists()

    def test_run_subsets_smaller_than_k_rejected_at_ingest(self, small_corpus, tmp_path, capsys):
        # 16 documents in two categories of 8: a tenth of each is one
        # document, so every subset holds 2 documents and cannot fill 12
        # clusters
        cfg = self.significance_config(
            tmp_path / "exp.cfg",
            small_corpus / "manifest.tsv",
            "k = 12",
            "fraction = 0.1",
            "out_dir = out",
        )
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error[ingest]: subsets of 2 documents cannot fill 12 clusters\n"
        )
        assert not (tmp_path / "out" / "results.jsonl").exists()

    def test_run_k_above_corpus_size_rejected_at_ingest(self, tmp_path, capsys):
        # 6 documents cannot fill 10 clusters, with or without subsets
        manifest = generate_corpus(
            tmp_path / "corpus", categories=2, docs_per_category=3, mode="zipf", seed=3
        )
        for n_subsets in (0, 3):
            cfg = write_config(
                tmp_path / "exp.cfg",
                [
                    f"manifest = {manifest}",
                    "baselines = tfidf",
                    "k = 10",
                    f"n_subsets = {n_subsets}",
                    "out_dir = out",
                ],
            )
            assert main(["run", str(cfg)]) == 1
            assert capsys.readouterr().err == (
                "error[ingest]: 6 documents cannot fill 10 clusters\n"
            )
            assert not (tmp_path / "out" / "results.jsonl").exists()

    def test_run_missing_manifest_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg", ["manifest = nope.tsv"])
        assert main(["run", str(cfg)]) == 1
        assert "error[ingest]" in capsys.readouterr().err

    def test_tune_writes_kb(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "tuned.kb"
        with pytest.warns(UserWarning, match="nudged"):
            assert main(["tune", str(small_corpus / "manifest.tsv"), "--out", str(out)]) == 0
        kb = load_kb(out)
        assert kb.name == "afcc"
        assert kb.flags == ("tuned",)


def doc_rows(corpus, doc_id):
    """One document's Corpus rows as term -> (freq, title, emph, raw_tf, positions)."""
    d = corpus.doc_ids.index(doc_id)
    pairs = range(corpus.doc_offsets[d], corpus.doc_offsets[d + 1])
    return {
        corpus.vocab[corpus.term_ids[i]]: (
            corpus.freq[i],
            corpus.title[i],
            corpus.emph[i],
            corpus.raw_tf[i],
            tuple(corpus.positions[corpus.pos_offsets[i]:corpus.pos_offsets[i + 1]]),
        )
        for i in pairs
    }


class TestAnchorRun:
    ANCHORS = {0: "quokka zephyr\nquokka", 9: "zephyr"}

    @pytest.fixture
    def anchored(self, small_corpus, tmp_path):
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        doc_ids = [e.doc_id for e in load_manifest(small_corpus / "manifest.tsv").entries]
        for i, text in self.ANCHORS.items():
            (anchors / f"{doc_ids[i]}.txt").write_text(text + "\n", encoding="utf-8")
        return anchors, doc_ids

    def config(self, small_corpus, out_dir, **kwargs):
        return RunConfig(
            manifest=small_corpus / "manifest.tsv", vector_sizes=(20,), out_dir=out_dir, **kwargs
        )

    def test_anchor_terms_carry_title_criteria(self, small_corpus, anchored, tmp_path):
        anchors, doc_ids = anchored
        manifest = load_manifest(small_corpus / "manifest.tsv")
        plain = pipeline.build_corpus(manifest, self.config(small_corpus, tmp_path))
        b1 = pipeline.build_corpus(
            manifest,
            self.config(small_corpus, tmp_path, anchor_variant="b1", anchors_dir=anchors),
        )
        first, second = doc_rows(b1, doc_ids[0]), doc_rows(b1, doc_ids[9])
        assert first["quokka"][1] > 0.0 and first["quokka"][2] == 0.0
        assert first["quokka"][3] == 2 and first["zephyr"][3] == 1
        assert first["zephyr"][1] > 0.0 and second["zephyr"][1] > 0.0
        assert "quokka" not in second and "quokka" not in plain.vocab
        for doc_id in doc_ids:
            if doc_id not in (doc_ids[0], doc_ids[9]):
                assert doc_rows(b1, doc_id) == doc_rows(plain, doc_id)

    def test_doc_id_outside_anchors_dir(self, small_corpus, anchored, tmp_path):
        # a doc_id that is a path names no anchor file, even one that exists
        anchors, _ = anchored
        (tmp_path / "secret.txt").write_text("leaked\n", encoding="utf-8")
        page = load_manifest(small_corpus / "manifest.tsv").entries[0].path
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"../secret\t{page}\tnews\n", encoding="utf-8")
        config = self.config(small_corpus, tmp_path, anchor_variant="b1", anchors_dir=anchors)
        with pytest.raises(StageError) as exc:
            pipeline.build_corpus(load_manifest(manifest), config)
        assert exc.value.stage == "criteria"
        assert exc.value.detail.startswith(f"../secret ({page}): ")
        assert "'../secret' is not a plain file name" in exc.value.detail

    def test_run_writes_outputs(self, small_corpus, anchored, tmp_path):
        anchors, _ = anchored
        report = run(
            self.config(small_corpus, tmp_path, anchor_variant="b1", anchors_dir=anchors)
        )
        header = json.loads(report.results_path.read_text(encoding="utf-8").splitlines()[0])
        assert header["anchor_variant"] == "b1"
        assert len(report.records) == 1
        assert report.table_path.read_text(encoding="utf-8").startswith("representation")


def golden_report():
    """A hand-built report of the shape run() produces, so the rendering
    golden below does not depend on clustering or the BLAS build."""
    config = RunConfig(
        manifest=Path("m.tsv"),
        representation="afcc",
        anchor_variant="b1",
        anchors_dir=Path("anchors"),
        vector_sizes=(10, 20),
        k=3,
        seed=4,
        n_subsets=3,
        fraction=0.5,
        baselines=("efcc", "tfidf"),
    )

    def f1(overall, aqua, blaze, coral):
        per_category = {
            "coral": CategoryScore(*coral, 2),
            "aqua": CategoryScore(*aqua, 4),
            "blaze": CategoryScore(*blaze, 3),
        }
        return F1Report(per_category, overall)

    records = [
        RunRecord(
            "afcc", 10, 4, 3, f1(0.7, (1.0, 0.75, 6 / 7), (0.6, 1.0, 0.75), (0.5, 0.5, 0.5)), 1, 4
        ),
        RunRecord(
            "afcc", 20, 4, 3, f1(2 / 3, (0.8, 1.0, 8 / 9), (1.0, 1 / 3, 0.5), (0.0, 0.0, 0.0)), 0, 3
        ),
    ]
    scores = {
        ("afcc", 10): [0.75, 0.5, 0.625],
        ("afcc", 20): [1 / 3, 0.5, 0.25],
        ("efcc", 10): [0.5, 0.25, 0.375],
        ("efcc", 20): [0.4, 0.6, 0.3],
        ("tfidf", 10): [0.25, 0.125, 0.5],
        ("tfidf", 20): [0.2, 0.2, 0.2],
    }
    significance = [
        SignificanceRecord("afcc", "efcc", 10, 3, TTestResult(0.25, float("inf"), 2, 0.0, True)),
        SignificanceRecord(
            "afcc", "efcc", 20, 3, TTestResult(-1 / 15, -0.5547001962252291, 2, 0.6349663290176064)
        ),
        SignificanceRecord("afcc", "tfidf", 10, 3, TTestResult(1 / 3, 2.0, 2, 0.18350341907227385)),
        SignificanceRecord(
            "afcc", "tfidf", 20, 3, TTestResult(0.1611111111111111, 1.5, 2, 0.2721655269759087)
        ),
    ]
    return ExperimentReport(config, records, significance, scores)


GOLDEN_RESULTS = """\
{"anchor_variant": "b1", "baselines": ["efcc", "tfidf"], "fraction": 0.5, "k": 3, "kind": "config", "n_subsets": 3, "representation": "afcc", "seed": 4, "vector_sizes": [10, 20]}
{"clusters": 4, "k": 3, "kind": "run", "overall_f1": 0.7, "per_category": {"aqua": {"f1": 0.8571428571428571, "precision": 1.0, "recall": 0.75, "support": 4}, "blaze": {"f1": 0.75, "precision": 0.6, "recall": 1.0, "support": 3}, "coral": {"f1": 0.5, "precision": 0.5, "recall": 0.5, "support": 2}}, "representation": "afcc", "seed": 4, "vector_size": 10, "zero_docs": 1}
{"clusters": 3, "k": 3, "kind": "run", "overall_f1": 0.6666666666666666, "per_category": {"aqua": {"f1": 0.8888888888888888, "precision": 0.8, "recall": 1.0, "support": 4}, "blaze": {"f1": 0.5, "precision": 1.0, "recall": 0.3333333333333333, "support": 3}, "coral": {"f1": 0.0, "precision": 0.0, "recall": 0.0, "support": 2}}, "representation": "afcc", "seed": 4, "vector_size": 20, "zero_docs": 0}
{"kind": "subset_scores", "representation": "afcc", "scores": [0.75, 0.5, 0.625], "vector_size": 10}
{"kind": "subset_scores", "representation": "afcc", "scores": [0.3333333333333333, 0.5, 0.25], "vector_size": 20}
{"kind": "subset_scores", "representation": "efcc", "scores": [0.5, 0.25, 0.375], "vector_size": 10}
{"kind": "subset_scores", "representation": "efcc", "scores": [0.4, 0.6, 0.3], "vector_size": 20}
{"kind": "subset_scores", "representation": "tfidf", "scores": [0.25, 0.125, 0.5], "vector_size": 10}
{"kind": "subset_scores", "representation": "tfidf", "scores": [0.2, 0.2, 0.2], "vector_size": 20}
{"a": "afcc", "b": "efcc", "df": 2, "kind": "ttest", "mean_diff": 0.25, "n_subsets": 3, "p": 0.0, "t": Infinity, "vector_size": 10, "zero_variance": true}
{"a": "afcc", "b": "efcc", "df": 2, "kind": "ttest", "mean_diff": -0.06666666666666667, "n_subsets": 3, "p": 0.6349663290176064, "t": -0.5547001962252291, "vector_size": 20, "zero_variance": false}
{"a": "afcc", "b": "tfidf", "df": 2, "kind": "ttest", "mean_diff": 0.3333333333333333, "n_subsets": 3, "p": 0.18350341907227385, "t": 2.0, "vector_size": 10, "zero_variance": false}
{"a": "afcc", "b": "tfidf", "df": 2, "kind": "ttest", "mean_diff": 0.1611111111111111, "n_subsets": 3, "p": 0.2721655269759087, "t": 1.5, "vector_size": 20, "zero_variance": false}
"""

GOLDEN_TABLE = """\
representation       10     20     avg
-------------------  -----  -----  -----
afcc                 0.700  0.667  0.683

afcc (subset mean)   0.625  0.361  0.493
efcc (subset mean)   0.375  0.433  0.404
tfidf (subset mean)  0.292  0.200  0.246

paired t-tests (3 subsets, fraction 0.5)
  afcc vs efcc @ 10: mean diff +0.2500, t = inf, df = 2, p = 0.0000 (zero variance)
  afcc vs efcc @ 20: mean diff -0.0667, t = -0.555, df = 2, p = 0.6350
  afcc vs tfidf @ 10: mean diff +0.3333, t = 2.000, df = 2, p = 0.1835
  afcc vs tfidf @ 20: mean diff +0.1611, t = 1.500, df = 2, p = 0.2722
"""


class TestRendering:
    def test_results_golden(self):
        assert render_results(golden_report()) == GOLDEN_RESULTS

    def test_table_golden(self):
        assert render_table(golden_report()) == GOLDEN_TABLE
