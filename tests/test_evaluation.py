"""Precision/recall arithmetic, record consistency, and the full harness."""

import shutil
from fractions import Fraction

import pytest

from rootsearch import cli
from rootsearch.cli import EXIT_OK, EXIT_VALIDATION, main
from rootsearch.corpus import load_manifest, manifest_digest, tree_digest
from rootsearch.errors import UnknownRoot
from rootsearch.evaluation import (
    BaselineEngine,
    build_engines,
    fixed4,
    make_record,
    precision,
    recall,
    run_evaluation,
    write_report,
)
from rootsearch.search import (
    BASELINE,
    ENGINES,
    EXPANDED,
    P2P_ADVANCED,
    P2P_SIMPLE,
    Query,
    SearchOutcome,
)

# hand-computed (found, relevant, precision, recall) cases, including both
# empty-set conventions: empty found -> P=0, empty relevant -> R=1
EQUATION_CASES = [
    ({"d1"}, {"d1"}, Fraction(1), Fraction(1)),
    ({"d1"}, {"d1", "d2"}, Fraction(1), Fraction(1, 2)),
    ({"d1", "d2"}, {"d1"}, Fraction(1, 2), Fraction(1)),
    (set(), {"d1"}, Fraction(0), Fraction(0)),
    (set(), set(), Fraction(0), Fraction(1)),
    ({"d1"}, set(), Fraction(0), Fraction(1)),
    ({"d1", "d2", "d3"}, {"d1", "d2"}, Fraction(2, 3), Fraction(1)),
    ({"d1", "d2"}, {"d2", "d3"}, Fraction(1, 2), Fraction(1, 2)),
    ({"d9"}, {f"d{i}" for i in range(100)}, Fraction(1), Fraction(1, 100)),
    ({"x"}, {f"d{i}" for i in range(100)}, Fraction(0), Fraction(0)),
    ({f"d{i}" for i in range(100)}, {f"d{i}" for i in range(100)}, Fraction(1), Fraction(1)),
    ({f"d{i}" for i in range(10)}, {f"d{i}" for i in range(5)}, Fraction(1, 2), Fraction(1)),
    ({f"d{i}" for i in range(5)}, {f"d{i}" for i in range(10)}, Fraction(1), Fraction(1, 2)),
    ({"d1", "d2", "d3", "d4"}, {"d3", "d4", "d5", "d6"}, Fraction(1, 2), Fraction(1, 2)),
    ({"d1", "d2", "d3"}, {"d3"}, Fraction(1, 3), Fraction(1)),
    ({"d3"}, {"d1", "d2", "d3"}, Fraction(1), Fraction(1, 3)),
    ({"a", "b", "c", "d", "e", "f", "g"}, {"a", "b", "c"}, Fraction(3, 7), Fraction(1)),
    ({"a", "b"}, {"c", "d"}, Fraction(0), Fraction(0)),
    ({"a", "b", "c"}, {"b", "c", "d", "e", "f"}, Fraction(2, 3), Fraction(2, 5)),
    ({"d1"}, {f"d{i}" for i in range(1, 21)}, Fraction(1), Fraction(1, 20)),
    ({f"d{i}" for i in range(3)}, {f"d{i}" for i in range(93)}, Fraction(1), Fraction(3, 93)),
    ({"a", "b", "c", "d"}, {"a"}, Fraction(1, 4), Fraction(1)),
    # a repeated id counts once
    (("d1", "d1"), ("d1",), Fraction(1), Fraction(1)),
    (("d2", "d1", "d2"), ("d2", "d3", "d3"), Fraction(1, 2), Fraction(1, 2)),
]


class TestEquations:
    @pytest.mark.parametrize("found,relevant,p,_r", EQUATION_CASES)
    def test_precision(self, found, relevant, p, _r):
        assert precision(found, relevant) == p

    @pytest.mark.parametrize("found,relevant,_p,r", EQUATION_CASES)
    def test_recall(self, found, relevant, _p, r):
        assert recall(found, relevant) == r

    def test_case_count_covers_requirement(self):
        assert len(EQUATION_CASES) >= 20


class TestFixed4:
    @pytest.mark.parametrize(
        "value,rendered",
        [
            (Fraction(1), "1.0000"),
            (Fraction(0), "0.0000"),
            (Fraction(1, 100), "0.0100"),
            (Fraction(1, 2), "0.5000"),
            (Fraction(1, 3), "0.3333"),
            (Fraction(2, 3), "0.6667"),
            (Fraction(1, 20), "0.0500"),
            (Fraction(3, 93), "0.0323"),
            (Fraction(1, 32), "0.0313"),
            (Fraction(3, 32), "0.0938"),
            (Fraction(1, 160), "0.0063"),
        ],
    )
    def test_rendering(self, value, rendered):
        assert fixed4(value) == rendered


class TestRecords:
    def test_flags_and_values(self):
        rec = make_record("q0", "لعب", set(), {"d1"})
        assert not rec.s_found and rec.s_relevant
        assert rec.precision == Fraction(0) and rec.recall == Fraction(0)
        rec = make_record("q0", "لعب", {"d1"}, set())
        assert rec.s_found and not rec.s_relevant
        assert rec.recall == Fraction(1)

    def test_stored_values_recompute_exactly(self, micro_report):
        for engine in micro_report.engine_names:
            for rec in micro_report.records[engine]:
                assert precision(rec.s_found, rec.s_relevant) == rec.precision
                assert recall(rec.s_found, rec.s_relevant) == rec.recall
                assert Fraction(0) <= rec.precision <= Fraction(1)
                assert Fraction(0) <= rec.recall <= Fraction(1)


@pytest.fixture(scope="module")
def micro_report(micro_corpus):
    corpus_dir, manifest = micro_corpus
    engines = build_engines(manifest)
    return run_evaluation(manifest, engines, corpus_digest=manifest_digest(corpus_dir))


class TestRunEvaluation:
    def test_all_engines_cover_all_queries(self, micro_corpus, micro_report):
        _, manifest = micro_corpus
        assert micro_report.engine_names == ENGINES
        for engine in ENGINES:
            assert len(micro_report.records[engine]) == len(manifest.queries)

    def test_baseline_mean_recall_is_reciprocal_words_per_root(
        self, micro_corpus, micro_report
    ):
        _, manifest = micro_corpus
        expected = Fraction(1, manifest.spec.words_per_root)
        assert micro_report.mean_recall(BASELINE) == expected
        assert micro_report.mean_precision(BASELINE) == Fraction(1)

    def test_root_aware_engines_are_perfect(self, micro_report):
        for engine in (EXPANDED, P2P_ADVANCED):
            assert micro_report.mean_precision(engine) == Fraction(1)
            assert micro_report.mean_recall(engine) == Fraction(1)

    def test_engine_pair_equalities(self, micro_report):
        by_query = {
            engine: {r.query_id: r.s_found for r in micro_report.records[engine]}
            for engine in ENGINES
        }
        assert by_query[BASELINE] == by_query[P2P_SIMPLE]
        assert by_query[EXPANDED] == by_query[P2P_ADVANCED]

    def test_engine_error_propagates_and_run_eval_writes_nothing(
        self, micro_corpus, tmp_path, capsys, monkeypatch
    ):
        corpus_dir, manifest = micro_corpus

        class FailingEngine:
            name = "baseline"

            def run(self, query):
                raise UnknownRoot(query.normalized)

        with pytest.raises(UnknownRoot):
            run_evaluation(manifest, [FailingEngine()])
        monkeypatch.setattr(cli, "build_engines", lambda *args: [FailingEngine()])
        results = tmp_path / "results"
        code = main(["run-eval", "--corpus", str(corpus_dir), "--out", str(results)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not results.exists()

    def test_hand_vocalized_query_evaluates_like_the_bare_word(
        self, micro_corpus, micro_report, tmp_path
    ):
        # queries are parsed as `rootsearch query` parses them: diacritics
        # and tatweel in queries.tsv are dropped before any engine and
        # before the relevance oracle
        corpus_dir, _ = micro_corpus
        shutil.copytree(corpus_dir, tmp_path / "c")
        path = tmp_path / "c" / "queries.tsv"
        lines = path.read_text("utf-8").splitlines()
        query_id, word, root = lines[1].split("\t")
        vocalized = word[0] + "ـ" + "".join(ch + "َ" for ch in word[1:])
        lines[1] = "\t".join([query_id, vocalized, root])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = load_manifest(tmp_path / "c")
        report = run_evaluation(manifest, build_engines(manifest))
        for engine in ENGINES:
            noisy, bare = report.records[engine][0], micro_report.records[engine][0]
            assert (noisy.query_id, noisy.word) == (query_id, vocalized)
            assert bare.s_found, engine
            assert (noisy.s_found, noisy.precision, noisy.recall, noisy.peers_contacted) == (
                bare.s_found, bare.precision, bare.recall, bare.peers_contacted
            ), engine

    def test_query_without_a_root_is_scored_on_its_row_root(self, micro_corpus, tmp_path):
        # relevance is the root queries.tsv records, not one the stemmer
        # finds: a word that resolves to no root still completes the run
        corpus_dir, _ = micro_corpus
        shutil.copytree(corpus_dir, tmp_path / "c")
        path = tmp_path / "c" / "queries.tsv"
        lines = path.read_text("utf-8").splitlines()
        query_id, _, root = lines[1].split("\t")
        lines[1] = "\t".join([query_id, "فه", root])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = load_manifest(tmp_path / "c")
        engines = build_engines(manifest)
        report = run_evaluation(manifest, engines)
        query = Query.parse(query_id, "فه")
        for engine in engines:
            record = report.records[engine.name][0]
            assert record.s_relevant == manifest.docs_by_root[root], engine.name
            if engine.name in (EXPANDED, P2P_ADVANCED):
                assert engine.run(query).result.degraded, engine.name


class TestBuildEngines:
    def test_all_four_by_default(self, micro_corpus):
        _, manifest = micro_corpus
        engines = build_engines(manifest)
        assert [e.name for e in engines] == list(ENGINES)

    def test_baseline_and_expanded_share_one_index(self, micro_corpus):
        _, manifest = micro_corpus
        baseline, expanded = build_engines(manifest, [BASELINE, EXPANDED])
        assert baseline.index is expanded.index

    def test_unknown_engine_rejected(self, micro_corpus):
        _, manifest = micro_corpus
        with pytest.raises(ValueError):
            build_engines(manifest, ["websearch"])


class TestWriteReport:
    def test_files_and_columns(self, micro_report, tmp_path):
        write_report(micro_report, tmp_path)
        for engine in ENGINES:
            lines = (tmp_path / f"{engine}.tsv").read_text("utf-8").splitlines()
            assert lines[0].startswith("# rootsearch-results v1")
            assert lines[1].split("\t") == [
                "query_id",
                "query_word",
                "found_count",
                "relevant_count",
                "precision",
                "recall",
                "peers_contacted",
            ]
            for line in lines[2:]:
                fields = line.split("\t")
                assert len(fields) == 7
                if engine in (BASELINE, EXPANDED):
                    assert fields[6] == "-"
                else:
                    assert fields[6].isdigit()
        summary = (tmp_path / "summary.tsv").read_text("utf-8").splitlines()
        assert summary[0].startswith("# rootsearch-summary v1")
        assert len(summary) == 2 + len(ENGINES)

    def test_rewrite_is_byte_identical(self, micro_report, tmp_path):
        write_report(micro_report, tmp_path / "a")
        write_report(micro_report, tmp_path / "b")
        for name in [f"{e}.tsv" for e in ENGINES] + ["summary.tsv"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestRenderReport:
    def test_side_by_side_with_mean_row(self, micro_report, tmp_path, capsys):
        write_report(micro_report, tmp_path)
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[:2] == ["query_id", "word"]
        assert lines[-1].startswith("ALL\t")
        assert "1.0000" in lines[-1]
        means = [
            fixed4(mean)
            for engine in micro_report.engine_names
            for mean in (
                micro_report.mean_precision(engine),
                micro_report.mean_recall(engine),
            )
        ]
        assert lines[-1].split("\t") == ["ALL", "-", *means]


class TestEngineResultShape:
    def test_baseline_engine_counts(self, micro_corpus):
        _, manifest = micro_corpus
        (engine,) = build_engines(manifest, [BASELINE])
        assert isinstance(engine, BaselineEngine)
        out = engine.run(Query.parse("q", manifest.queries[0].word))
        assert isinstance(out, SearchOutcome)
        assert len(out.result.found) == 1
        assert out.peers_contacted is None
        assert out.messages == ()


class TestPinnedResults:
    # tree_digest of the results/*.tsv that write_report writes for the
    # default corpus, pinned when P/R rendering moved from Fraction
    # arithmetic to integers: every results byte stays as it was
    RESULTS_DIGEST = "0852273afba6082a6192ef5be38bbaed6cf9ea00f0fdd111b31cfd7516377d16"

    def test_default_results_match_the_pinned_digest(self, full_report, tmp_path):
        summary = write_report(full_report, tmp_path)
        assert tree_digest(tmp_path) == self.RESULTS_DIGEST
        assert summary == (tmp_path / "summary.tsv").read_text("utf-8").splitlines()[1:]
