"""CLI subcommands end to end on scaled-down corpora."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootsearch
from rootsearch import evaluation
from rootsearch.cli import (
    EXIT_INFRASTRUCTURE,
    EXIT_OK,
    EXIT_VALIDATION,
    _build_parser,
    _resolve_spec,
    main,
)
from rootsearch.corpus import CorpusSpec, load_manifest, tree_digest
from rootsearch.index import IndexMode
from rootsearch.p2p import build_overlay
from rootsearch.search import Query
from tests.test_p2p import reference_p2p_search


@pytest.fixture()
def micro_args(tmp_path):
    corpus = tmp_path / "corpus"
    code = main(["gen-corpus", "--roots", "2", "--words", "3", "--out", str(corpus)])
    assert code == EXIT_OK
    return corpus


class TestGenCorpus:
    def test_micro_corpus_files_and_digest(self, micro_args, capsys):
        corpus = micro_args
        assert len(list(corpus.rglob("*.txt"))) == 6
        assert (corpus / "manifest.tsv").exists()

    def test_prints_digest(self, tmp_path, capsys):
        code = main(["gen-corpus", "--roots", "2", "--words", "3", "--out", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "corpus digest: " in out
        assert "generated 6 documents" in out

    def test_invalid_spec_names_invariant(self, tmp_path, capsys):
        code = main(
            [
                "gen-corpus",
                "--roots", "5",
                "--peers", "4",
                "--super-peers", "2",
                "--out", str(tmp_path / "c"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "root_count must equal peer_count * roots_per_peer" in err

    def test_zero_peers_is_a_spec_error(self, tmp_path, capsys):
        code = main(["gen-corpus", "--peers", "0", "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == "error: --peers must be at least 1, got 0\n"
        assert not (tmp_path / "c").exists()

    def test_defaults_are_the_default_spec(self):
        parser = _build_parser()
        assert _resolve_spec(parser.parse_args(["gen-corpus"])) == CorpusSpec()
        small = _resolve_spec(parser.parse_args(["gen-corpus", "--roots", "4", "--words", "5"]))
        assert (small.peer_count, small.superpeer_count) == (4, 2)

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(
                ["gen-corpus", "--roots", "4", "--words", "2", "--seed", "9",
                 "--out", str(tmp_path / name)]
            ) == EXIT_OK
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


class TestParser:
    def test_build_index_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build-index"])
        assert exc.value.code == 2
        assert "invalid choice: 'build-index'" in capsys.readouterr().err

    def test_run_eval_takes_no_origin(self, capsys):
        # every query reaches every super-peer: the origin changes no result
        with pytest.raises(SystemExit) as exc:
            main(["run-eval", "--origin", "peer-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --origin peer-1" in capsys.readouterr().err


class TestQuery:
    def _word(self, corpus, engine_hits=1):
        manifest_line = (corpus / "queries.tsv").read_text("utf-8").splitlines()[1]
        return manifest_line.split("\t")[1]

    def test_baseline_single_hit(self, micro_args, capsys):
        word = self._word(micro_args)
        code = main(["query", word, "--corpus", str(micro_args)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "found (1):" in out

    def test_expanded_finds_group(self, micro_args, capsys):
        word = self._word(micro_args)
        code = main(["query", word, "--corpus", str(micro_args), "--engine", "expanded"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "expanded terms (3):" in out
        assert "found (3):" in out

    def test_p2p_advanced_with_origin_and_trace(self, micro_args, capsys):
        word = self._word(micro_args)
        code = main(
            ["query", word, "--corpus", str(micro_args),
             "--engine", "p2p-advanced", "--origin", "peer-2"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "found (3):" in out
        assert "peers contacted: 1" in out
        assert "QUERY_UP" in out and "RESULTS_BACK" in out

    def test_message_block_is_the_reference_log_numbered_from_1(self, micro_args, capsys):
        word = self._word(micro_args)
        code = main(
            ["query", word, "--corpus", str(micro_args),
             "--engine", "p2p-advanced", "--origin", "peer-2"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        overlay = build_overlay(load_manifest(micro_args), IndexMode.ADVANCED)
        log = reference_p2p_search(Query.parse("cli", word), overlay, "peer-2").messages
        block = "".join(
            f"{n}\t{m.kind}\t{m.src}\t{m.dst}\t{len(m.payload)}\n" for n, m in enumerate(log, 1)
        )
        assert out[out.index("messages:\n"):] == "messages:\n" + block

    def test_unknown_root_warns_but_succeeds(self, micro_args, capsys):
        code = main(["query", "فه", "--corpus", str(micro_args), "--engine", "expanded"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "warning" in captured.err
        assert "found (0):" in captured.out

    @pytest.mark.parametrize("engine", ["expanded", "p2p-advanced"])
    def test_digit_query_degrades_instead_of_taking_a_root(self, micro_args, capsys, engine):
        code = main(["query", "١٢٣", "--corpus", str(micro_args), "--engine", engine])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == (
            "warning: no root resolved for '١٢٣'; degraded to exact search\n"
        )
        assert "expanded terms" not in captured.out
        assert "found (0):" in captured.out

    @pytest.mark.parametrize(
        "engine,warns",
        [("baseline", False), ("expanded", True), ("p2p-simple", False), ("p2p-advanced", True)],
    )
    def test_absent_root_warns_root_aware_engines(self, micro_args, capsys, engine, warns):
        # زخرف resolves to a root (by light stemming) that no corpus word has
        code = main(["query", "زخرف", "--corpus", str(micro_args), "--engine", engine])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        warning = "warning: the root of 'زخرف' has no words in the corpus\n"
        assert captured.err == (warning if warns else "")
        assert "found (0):" in captured.out

    def test_multi_word_query_rejected(self, micro_args, capsys):
        code = main(["query", "كتاب جديد", "--corpus", str(micro_args)])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("engine", ["baseline", "p2p-simple"])
    def test_unknown_origin_rejected_before_any_build(
        self, micro_args, capsys, monkeypatch, engine
    ):
        def no_build(*args):
            raise AssertionError("built an engine for an unknown origin")

        monkeypatch.setattr(evaluation, "build_index", no_build)
        monkeypatch.setattr(evaluation, "build_overlay", no_build)
        code = main(
            ["query", self._word(micro_args), "--corpus", str(micro_args),
             "--engine", engine, "--origin", "peer-9"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err == (
            "error: unknown origin peer 'peer-9': the peers are peer-1..peer-2\n"
        )

    @pytest.mark.parametrize("engine", ["baseline", "p2p-simple"])
    def test_unknown_origin_prints_nothing_to_stdout(self, micro_args, capsys, engine):
        code = main(
            ["query", self._word(micro_args), "--corpus", str(micro_args),
             "--engine", engine, "--origin", "peer-9"]
        )
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    def test_nothing_left_after_normalization_names_the_cause(self, micro_args, capsys):
        code = main(["query", "ـــ", "--corpus", str(micro_args)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err == "error: nothing left after normalization: 'ـــ'\n"
        assert captured.out == ""


class TestRunEvalAndReport:
    def test_full_micro_pipeline(self, micro_args, tmp_path, capsys):
        results = tmp_path / "results"
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(results)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        names = {p.name for p in results.iterdir()}
        assert names == {
            "baseline.tsv",
            "expanded.tsv",
            "p2p-simple.tsv",
            "p2p-advanced.tsv",
            "summary.tsv",
        }
        assert "baseline\t2\t1.0000\t0.3333\t0" in out
        assert "expanded\t2\t1.0000\t1.0000\t0" in out

    def test_stdout_table_is_summary_body(self, micro_args, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(["run-eval", "--corpus", str(micro_args), "--out", str(results)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        summary = (results / "summary.tsv").read_text("utf-8").splitlines()
        assert out[0].startswith("corpus digest: ")
        assert out[1:-1] == summary[1:]
        assert out[-1] == f"results written to {results}"

    def test_engine_selection(self, micro_args, tmp_path):
        results = tmp_path / "results"
        code = main(
            ["run-eval", "--corpus", str(micro_args), "--out", str(results),
             "--engines", "baseline"]
        )
        assert code == EXIT_OK
        assert {p.name for p in results.iterdir()} == {"baseline.tsv", "summary.tsv"}

    def test_fewer_engines_remove_the_other_engines_tables(self, micro_args, tmp_path):
        # tables of engines this run left out, from another corpus, would
        # sit next to a summary that does not list them
        results = tmp_path / "results"
        other = tmp_path / "seed-3"
        assert main(["run-eval", "--corpus", str(micro_args), "--out", str(results)]) == EXIT_OK
        assert main(
            ["gen-corpus", "--roots", "2", "--words", "3", "--seed", "3", "--out", str(other)]
        ) == EXIT_OK
        assert main(
            ["run-eval", "--corpus", str(other), "--out", str(results), "--engines", "baseline"]
        ) == EXIT_OK
        assert sorted(p.name for p in results.iterdir()) == ["baseline.tsv", "summary.tsv"]

    def test_an_engine_named_twice_is_evaluated_once(self, micro_args, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(
            ["run-eval", "--corpus", str(micro_args), "--out", str(results),
             "--engines", "baseline", "expanded", "baseline"]
        ) == EXIT_OK
        rows = (results / "summary.tsv").read_text("utf-8").splitlines()[2:]
        assert [row.split("\t")[0] for row in rows] == ["baseline", "expanded"]
        capsys.readouterr()
        assert main(["report", "--results", str(results)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_rerun_byte_identical(self, micro_args, tmp_path):
        for name in ("r1", "r2"):
            assert main(
                ["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / name)]
            ) == EXIT_OK
        assert tree_digest(tmp_path / "r1") == tree_digest(tmp_path / "r2")

    def test_failed_rename_leaves_earlier_results_whole(
        self, micro_args, tmp_path, capsys, monkeypatch
    ):
        results = tmp_path / "results"
        args = ["run-eval", "--corpus", str(micro_args), "--out", str(results)]
        assert main([*args, "--engines", "baseline"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in results.iterdir()}

        def no_rename(src, dst):
            raise OSError(f"cannot rename {src}")

        monkeypatch.setattr(os, "replace", no_rename)
        capsys.readouterr()
        assert main(args) == EXIT_INFRASTRUCTURE
        assert capsys.readouterr().err.startswith("error: cannot rename ")
        # no partial file under a final name, and no .part file left behind
        assert {p.name: p.read_bytes() for p in results.iterdir()} == before

    def test_report_renders_table(self, micro_args, tmp_path, capsys):
        results = tmp_path / "results"
        main(["run-eval", "--corpus", str(micro_args), "--out", str(results)])
        capsys.readouterr()
        code = main(["report", "--results", str(results)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("query_id\tword")
        assert len(lines) == 1 + 2 + 1
        summary = (results / "summary.tsv").read_text("utf-8").splitlines()[2:]
        means = [cell for row in summary for cell in row.split("\t")[2:4]]
        assert lines[-1].split("\t") == ["ALL", "-", *means]

    def test_missing_corpus_is_infrastructure_error(self, tmp_path, capsys):
        code = main(["run-eval", "--corpus", str(tmp_path / "nope")])
        assert code == 2

    def test_query_agrees_with_run_eval_rows(self, micro_args, tmp_path, capsys):
        # `query` and `run-eval` build their engines through one dispatch
        results = tmp_path / "results"
        assert main(["run-eval", "--corpus", str(micro_args), "--out", str(results)]) == EXIT_OK
        for engine in ("baseline", "expanded", "p2p-simple", "p2p-advanced"):
            rows = (results / f"{engine}.tsv").read_text("utf-8").splitlines()[2:]
            for row in rows:
                _, word, found_count, _, _, _, peers = row.split("\t")
                capsys.readouterr()
                code = main(["query", word, "--corpus", str(micro_args), "--engine", engine])
                out = capsys.readouterr().out.splitlines()
                assert code == EXIT_OK
                assert f"found ({found_count}):" in out, (engine, word)
                contacted = [line for line in out if line.startswith("peers contacted: ")]
                expected = [] if peers == "-" else [f"peers contacted: {peers}"]
                assert contacted == expected, (engine, word)


class TestReportInputErrors:
    @pytest.fixture()
    def results(self, micro_args, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run-eval", "--corpus", str(micro_args), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        return out

    def _report_error(self, results, capsys):
        code = main(["report", "--results", str(results)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        return captured.err

    def test_empty_summary_names_file_and_line(self, results, capsys):
        path = results / "summary.tsv"
        path.write_text("", encoding="utf-8")
        assert self._report_error(results, capsys) == (
            f"error: {path}:1: empty file, expected header '# rootsearch-summary v1'\n"
        )

    def test_summary_without_engine_rows_is_rejected(self, results, capsys):
        path = results / "summary.tsv"
        path.write_text("\n".join(path.read_text("utf-8").splitlines()[:2]) + "\n", "utf-8")
        assert self._report_error(results, capsys) == (
            f"error: {path}: no rows after the header lines\n"
        )

    def test_truncated_results_row_names_file_and_line(self, results, capsys):
        path = results / "expanded.tsv"
        lines = path.read_text("utf-8").splitlines()
        lines[3] = lines[3].rsplit("\t", 1)[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._report_error(results, capsys) == (
            f"error: {path}:4: expected 7 tab-separated fields, got 6\n"
        )

    @pytest.mark.parametrize(
        "name,column,field",
        [("baseline.tsv", 1, "query word"), ("summary.tsv", 4, "failures")],
    )
    def test_empty_field_names_file_and_line(self, results, capsys, name, column, field):
        path = results / name
        fields = path.read_text("utf-8").splitlines()[2].split("\t")
        fields[column] = ""
        self._set_line(path, 3, "\t".join(fields))
        assert self._report_error(results, capsys) == f"error: {path}:3: empty {field} field\n"

    def test_results_file_with_wrong_magic_names_file_and_line(self, results, capsys):
        path = results / "baseline.tsv"
        lines = path.read_text("utf-8").splitlines()
        lines[0] = "# rootsearch-summary v1"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._report_error(results, capsys) == (
            f"error: {path}:1: expected header '# rootsearch-results v1',"
            " got '# rootsearch-summary v1'\n"
        )

    @staticmethod
    def _set_line(path, lineno, text):
        """Replace line ``lineno`` of ``path`` with ``text``; return the old line."""
        lines = path.read_text("utf-8").splitlines()
        old, lines[lineno - 1] = lines[lineno - 1], text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return old

    @pytest.mark.parametrize(
        "name,id_name", [("baseline.tsv", "query id"), ("summary.tsv", "engine")]
    )
    def test_repeated_row_names_both_lines(self, results, capsys, name, id_name):
        path = results / name
        row = path.read_text("utf-8").splitlines()[2]
        self._set_line(path, 4, row)
        row_id = row.split("\t")[0]
        assert self._report_error(results, capsys) == (
            f"error: {path}:4: {id_name} {row_id!r} repeats line 3\n"
        )

    def test_garbage_column_line_names_line_2(self, results, capsys):
        path = results / "expanded.tsv"
        columns = self._set_line(path, 2, "garbage line")
        assert self._report_error(results, capsys) == (
            f"error: {path}:2: expected column line {columns!r}, got 'garbage line'\n"
        )

    def test_results_of_another_corpus_name_line_1(self, results, capsys):
        path = results / "expanded.tsv"
        header = path.read_text("utf-8").splitlines()[0]
        digest = header.split("corpus_digest=")[1].split("\t")[0]
        self._set_line(path, 1, header.replace(digest, "deadbeef"))
        assert self._report_error(results, capsys) == (
            f"error: {path}:1: header field 'corpus_digest' is 'deadbeef',"
            f" expected {digest!r}\n"
        )

    def test_results_file_of_another_engine_names_line_1(self, results, capsys):
        path = results / "baseline.tsv"
        path.write_bytes((results / "expanded.tsv").read_bytes())
        assert self._report_error(results, capsys) == (
            f"error: {path}:1: header field 'engine' is 'expanded', expected 'baseline'\n"
        )


class TestCorpusLoadErrors:
    @pytest.mark.parametrize("name", ["manifest.tsv", "queries.tsv"])
    def test_empty_file_names_line(self, micro_args, tmp_path, capsys, name):
        (micro_args / name).write_text("", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"{micro_args / name}:1: empty file" in err

    @pytest.mark.parametrize("name,width", [("manifest.tsv", 4), ("queries.tsv", 3)])
    def test_short_row_names_line(self, micro_args, tmp_path, capsys, name, width):
        path = micro_args / name
        lines = path.read_text("utf-8").splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"{path}:3: expected {width} tab-separated fields, got {width - 1}" in err

    @pytest.mark.parametrize("name", ["manifest.tsv", "queries.tsv"])
    def test_bad_header_names_file_and_line(self, micro_args, tmp_path, capsys, name):
        path = micro_args / name
        magic = f"# rootsearch-{name.removesuffix('.tsv')} v1"
        lines = path.read_text("utf-8").splitlines()
        lines[0] = "# not-a-manifest"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:1: expected header {magic!r}, got '# not-a-manifest'\n"

    def test_long_row_after_a_blank_line_names_its_line(self, micro_args, tmp_path, capsys):
        path = micro_args / "manifest.tsv"
        lines = path.read_text("utf-8").splitlines()
        lines[3] += "\textra"
        lines.insert(2, "")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:5: expected 4 tab-separated fields, got 5\n"

    def test_queries_file_of_another_corpus_names_line_1(self, micro_args, tmp_path, capsys):
        # the query set of a seed-2 corpus in a seed-2011 corpus
        other = tmp_path / "other"
        main(["gen-corpus", "--roots", "2", "--words", "3", "--seed", "2", "--out", str(other)])
        path = micro_args / "queries.tsv"
        path.write_bytes((other / "queries.tsv").read_bytes())
        capsys.readouterr()
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:1: header field 'seed' is '2', expected '2011'\n"

    def test_header_only_queries_file_is_rejected(self, micro_args, tmp_path, capsys):
        path = micro_args / "queries.tsv"
        path.write_text(path.read_text("utf-8").splitlines()[0] + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}: no queries after the header line\n"

    def test_header_only_manifest_is_rejected(self, micro_args, tmp_path, capsys):
        path = micro_args / "manifest.tsv"
        path.write_text(path.read_text("utf-8").splitlines()[0] + "\n", encoding="utf-8")
        code = main(
            ["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r"),
             "--engines", "baseline", "expanded"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}: no documents after the header line\n"

    def test_document_count_must_match_header(self, micro_args, tmp_path, capsys):
        path = micro_args / "manifest.tsv"
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = main(
            ["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r"),
             "--engines", "baseline", "expanded"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == (
            f"error: {path}: 5 documents, header says roots=2 x words_per_root=3 = 6\n"
        )

    def test_repeated_doc_id_names_its_line(self, micro_args, tmp_path, capsys):
        path = micro_args / "manifest.tsv"
        lines = path.read_text("utf-8").splitlines()
        doc_id = lines[1].split("\t")[0]
        lines[4] = "\t".join([doc_id, *lines[4].split("\t")[1:]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            ["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r"),
             "--engines", "baseline", "expanded"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:5: doc id {doc_id!r} repeats line 2\n"

    @pytest.mark.parametrize(
        "name,column,field",
        [
            ("manifest.tsv", 0, "doc id"),
            ("manifest.tsv", 1, "word"),
            ("manifest.tsv", 2, "root"),
            ("manifest.tsv", 3, "peer id"),
            ("queries.tsv", 0, "query id"),
            ("queries.tsv", 1, "word"),
            ("queries.tsv", 2, "root"),
        ],
    )
    def test_empty_field_names_its_line(self, micro_args, tmp_path, capsys, name, column, field):
        path = micro_args / name
        lines = path.read_text("utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[column] = ""
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:3: empty {field} field\n"

    @pytest.mark.parametrize(
        "root", [" ", "\u00a0", "كت", "كتبكت", "أكل", "ktb"],
        ids=["space", "no-break-space", "two-letters", "five-letters", "unnormalized", "latin"],
    )
    def test_root_derive_would_reject_names_its_line(self, micro_args, tmp_path, capsys, root):
        path = micro_args / "manifest.tsv"
        lines = path.read_text("utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[2] = root
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == (
            f"error: {path}:3: root {root!r} is not a normalized Arabic word of 3 or 4 letters\n"
        )

    @pytest.mark.parametrize(
        "column,name", [(0, "doc id"), (1, "word")], ids=["doc-id", "word"]
    )
    @pytest.mark.parametrize("value", [" ", "\u00a0"], ids=["space", "no-break-space"])
    def test_whitespace_doc_id_or_word_names_its_line(
        self, micro_args, tmp_path, capsys, column, name, value
    ):
        path = micro_args / "manifest.tsv"
        lines = path.read_text("utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[column] = value
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:3: {name} {value!r} holds whitespace\n"
        assert not (tmp_path / "r").exists()

    def test_word_under_two_roots_names_the_later_line(self, micro_args, tmp_path, capsys):
        path = micro_args / "manifest.tsv"
        lines = path.read_text("utf-8").splitlines()
        _, word, root, _ = lines[2].split("\t")
        fields = lines[5].split("\t")
        other, fields[1] = fields[2], word
        lines[5] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:6: word {word!r} has two roots: {root!r} and {other!r}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "word", ["\u064e", "kitab", "كتب جديد"], ids=["diacritic-only", "latin", "two-words"]
    )
    def test_bad_query_word_names_its_line(self, micro_args, tmp_path, capsys, word):
        path = micro_args / "queries.tsv"
        lines = path.read_text("utf-8").splitlines()
        query_id, _, root = lines[2].split("\t")
        lines[2] = "\t".join([query_id, word, root])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:3: query word {word!r} is not one Arabic word\n"

    @pytest.mark.parametrize(
        "field,replacement,message",
        [
            ("roots", "", "header has no 'roots' field"),
            ("peers", "peers=four", "header field peers='four' is not an integer"),
            ("patterns", "", "header has no 'patterns' field"),
        ],
        ids=["missing-roots", "non-integer-peers", "missing-patterns"],
    )
    def test_bad_manifest_header_names_line_and_field(
        self, micro_args, tmp_path, capsys, field, replacement, message
    ):
        path = micro_args / "manifest.tsv"
        lines = path.read_text("utf-8").splitlines()
        header = lines[0].split("\t")
        header = [replacement if cell.startswith(f"{field}=") else cell for cell in header]
        lines[0] = "\t".join(cell for cell in header if cell)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run-eval", "--corpus", str(micro_args), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == f"error: {path}:1: {message}\n"


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports rootsearch from the
    same sources as this test; return its stdout."""
    src = str(Path(rootsearch.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


class TestStartup:
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        code = (
            "import rootsearch.cli, sys; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
        )
        assert _fresh_python(code) == "[]\n"

    def test_package_imports_none_of_its_modules(self):
        code = (
            "import rootsearch, sys; "
            "print([m for m in sys.modules if m.startswith('rootsearch.')])"
        )
        assert _fresh_python(code) == "[]\n"

    # so each module imported first in a fresh interpreter shows an import
    # cycle that a fixed earlier import order would hide
    @pytest.mark.parametrize(
        "module",
        ["normalize", "morphology", "corpus", "index", "search", "p2p", "evaluation", "cli",
         "errors"],
    )
    def test_each_module_imports_first(self, module):
        _fresh_python(f"import rootsearch.{module}")
