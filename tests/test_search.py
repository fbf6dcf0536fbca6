"""Exact search, query expansion, and the cross-engine equivalences."""

import pytest

from rootsearch.corpus import CorpusSpec, Document, generate_corpus, relevant_set
from rootsearch.index import IndexMode, build_index
from rootsearch.morphology import RootLexicon
from rootsearch.search import (
    BASELINE,
    EXPANDED,
    Query,
    expand_query,
    search_exact,
    search_expanded,
)


def _vocalize(word: str) -> str:
    return "".join(ch + "َ" for ch in word[:-1]) + word[-1] + "ْ"


class TestQueryParse:
    def test_normalizes(self):
        query = Query.parse("q", "المَأْكُول")
        assert query.normalized == "الماكول"
        assert query.raw == "المَأْكُول"

    def test_rejects_multi_word(self):
        with pytest.raises(ValueError, match="single"):
            Query.parse("q", "كتاب جديد")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Query.parse("q", "   ")


class TestSearchExact:
    def test_corpus_word_finds_exactly_its_document(self, manifest, simple_index):
        doc = manifest.documents[7]
        result = search_exact(Query.parse("q", doc.word), simple_index)
        assert result.found == (doc.doc_id,)
        assert result.engine == BASELINE
        assert result.expanded_terms == ()
        assert set(result.found) <= relevant_set(doc.word, manifest)

    def test_absent_word_finds_nothing(self, simple_index):
        result = search_exact(Query.parse("q", "زخرف"), simple_index)
        assert result.found == ()

    def test_excludes_other_roots(self, manifest, simple_index):
        found = search_exact(Query.parse("q", "يلعبون"), simple_index).found
        other = {d.doc_id for d in manifest.documents if d.root == "اكل"}
        assert not set(found) & other


class TestExpandQuery:
    def test_corpus_word_expands_to_whole_group(self, manifest, lexicon):
        terms = expand_query(Query.parse("q", "يلعبون"), lexicon)
        assert len(terms) == 100
        assert terms == sorted(terms)
        assert set(terms) == set(lexicon.words_of("لعب"))
        assert "يلعبون" in terms

    def test_unresolvable_degrades_to_itself(self, lexicon):
        assert expand_query(Query.parse("q", "فه"), lexicon) == ["فه"]

    def test_resolved_but_absent_root_expands_to_nothing(self, lexicon):
        assert expand_query(Query.parse("q", "زخرف"), lexicon) == []


class TestSearchExpanded:
    def test_finds_whole_relevant_set(self, manifest, simple_index, lexicon):
        query = Query.parse("q", manifest.queries[3].word)
        result = search_expanded(query, simple_index, lexicon)
        assert result.engine == EXPANDED
        assert set(result.found) == relevant_set(query.normalized, manifest)
        assert len(result.found) == 100
        assert not result.degraded

    def test_vocalized_definite_query_retrieves_root_group(
        self, manifest, simple_index, lexicon
    ):
        result = search_expanded(Query.parse("q", "المَأْكُول"), simple_index, lexicon)
        assert set(result.found) == manifest.docs_by_root["اكل"]
        assert len(result.found) == 100

    def test_superset_of_exact_for_all_queries(self, manifest, simple_index, lexicon):
        for entry in manifest.queries:
            query = Query.parse(entry.query_id, entry.word)
            exact = set(search_exact(query, simple_index).found)
            expanded = set(search_expanded(query, simple_index, lexicon).found)
            assert exact <= expanded

    def test_degraded_query_equals_exact(self, simple_index, lexicon):
        query = Query.parse("q", "فه")
        result = search_expanded(query, simple_index, lexicon)
        assert result.degraded
        assert result.expanded_terms == ("فه",)
        assert result.found == search_exact(query, simple_index).found

    def test_degraded_query_finds_indexed_word_outside_lexicon(self):
        index = build_index([Document("d0", "فه", "فه", "peer-1")], IndexMode.SIMPLE, RootLexicon())
        result = search_expanded(Query.parse("q", "فه"), index, RootLexicon())
        assert result.degraded
        assert result.found == ("d0",)
        assert index.root_postings == {}

    def test_singleton_root_group_equals_exact(self, tmp_path):
        spec = CorpusSpec(
            root_count=2, words_per_root=1, peer_count=2,
            superpeer_count=1, roots_per_peer=1, seed=3,
        )
        manifest = generate_corpus(spec, tmp_path)
        index = build_index(manifest.documents, IndexMode.SIMPLE, manifest.lexicon)
        for entry in manifest.queries:
            query = Query.parse(entry.query_id, entry.word)
            assert (
                search_expanded(query, index, manifest.lexicon).found
                == search_exact(query, index).found
            )


class TestSearchInvariants:
    def test_root_closure(self, manifest, simple_index, lexicon):
        by_id = {d.doc_id: d for d in manifest.documents}
        for entry in manifest.queries[::5]:
            query = Query.parse(entry.query_id, entry.word)
            result = search_expanded(query, simple_index, lexicon)
            assert all(by_id[doc_id].root == entry.root for doc_id in result.found)

    def test_expansion_layer_equals_advanced_index_for_every_word(
        self, manifest, simple_index, advanced_index, lexicon
    ):
        # the central cross-check: expanding over a SIMPLE index and exact
        # lookup over an ADVANCED index are the same retrieval function
        for doc in manifest.documents:
            query = Query(doc.doc_id, doc.word, doc.word)
            expanded = search_expanded(query, simple_index, lexicon)
            exact_advanced = search_exact(query, advanced_index)
            assert expanded.found == exact_advanced.found

    def test_orthography_insensitive(self, manifest, simple_index, lexicon):
        for entry in manifest.queries[::9]:
            bare = Query.parse(entry.query_id, entry.word)
            vocalized = Query.parse(entry.query_id, _vocalize(entry.word))
            assert vocalized.normalized == bare.normalized
            assert (
                search_expanded(vocalized, simple_index, lexicon).found
                == search_expanded(bare, simple_index, lexicon).found
            )
            assert (
                search_exact(vocalized, simple_index).found
                == search_exact(bare, simple_index).found
            )
