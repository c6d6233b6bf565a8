import json

import pytest

from fuzzterm import (
    RunConfig,
    generate_corpus,
    load_config,
    load_kb,
    load_manifest,
    run,
    weigh_fuzzy,
)
from fuzzterm.cli import main
from fuzzterm.errors import EmptyDocument, StageError
from fuzzterm.pipeline import _build_criteria


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
        report = run(config)
        assert report.tuned_kb_path == tmp_path / "afcc.tuned.kb"
        replayed = load_kb(report.tuned_kb_path)
        assert replayed.name == "afcc"
        assert replayed.flags == ("tuned",)
        # replaying the dumped base reproduces the pipeline's weights exactly
        manifest = load_manifest(config.manifest)
        criteria = _build_criteria(manifest, config)
        doc_id = manifest.doc_ids()[0]
        from fuzzterm import load_bundled, tune_afcc
        from fuzzterm.pipeline import build_profiles

        fresh = tune_afcc(load_bundled("efcc"), build_profiles(criteria))
        w_replay = weigh_fuzzy(doc_id, criteria[doc_id], replayed).weights
        w_fresh = weigh_fuzzy(doc_id, criteria[doc_id], fresh).weights
        assert w_replay == w_fresh

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
            vector_sizes=(15,),
            seed=0,
            out_dir=tmp_path,
            dump_vectors=True,
            dump_features=True,
        )
        run(config)
        assert (tmp_path / "vectors.txt").is_file()
        features = (tmp_path / "features_15.txt").read_text(encoding="utf-8")
        assert len(features.splitlines()) == 15

    def test_missing_manifest_tagged_ingest(self, tmp_path):
        config = RunConfig(manifest=tmp_path / "nope.tsv", out_dir=tmp_path)
        with pytest.raises(StageError) as exc:
            run(config)
        assert exc.value.stage == "ingest"

    def test_oversized_k_tagged_cluster(self, small_corpus, tmp_path):
        config = RunConfig(
            manifest=small_corpus / "manifest.tsv",
            representation="efcc",
            vector_sizes=(10,),
            k=500,
            out_dir=tmp_path,
        )
        with pytest.raises(StageError) as exc:
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

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_kb_check_rejects_small_grid(self, grid, capsys):
        assert main(["kb-check", "emph", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid_per_axis must be at least 2, got {grid}\n"

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

    def test_run_missing_manifest_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg", ["manifest = nope.tsv"])
        assert main(["run", str(cfg)]) == 1
        assert "error[ingest]" in capsys.readouterr().err

    def test_tune_writes_kb(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "tuned.kb"
        assert (
            main(["tune", str(small_corpus / "manifest.tsv"), "--out", str(out)]) == 0
        )
        kb = load_kb(out)
        assert kb.name == "afcc"
        assert kb.flags == ("tuned",)
