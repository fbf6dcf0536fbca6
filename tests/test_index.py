"""Index builds in both modes, exact lookup, and the mode invariants."""

import pytest

from rootsearch.corpus import Document, relevant_set
from rootsearch.errors import UnknownRoot
from rootsearch.index import IndexMode, build_index, load_index, save_index
from rootsearch.morphology import RootLexicon
from rootsearch.search import Query, search_exact, search_expanded


class TestSimpleBuild:
    def test_peer_shard_has_one_key_per_document(self, manifest):
        shard = manifest.docs_by_peer["peer-1"]
        index = build_index(shard, IndexMode.SIMPLE, manifest.lexicon)
        assert len(index) == 2500
        assert index.doc_count == 2500
        assert all(len(ids) == 1 for ids in index.entries.values())

    def test_document_indexed_under_its_own_word_only(self, manifest, simple_index):
        doc = manifest.documents[42]
        assert simple_index.lookup(doc.word) == [doc.doc_id]

    def test_total_posting_mass_equals_doc_count(self, simple_index):
        assert sum(len(ids) for ids in simple_index.entries.values()) == 10_000


class TestAdvancedBuild:
    def test_peer_shard_keys_and_posting_sizes(self, manifest):
        shard = manifest.docs_by_peer["peer-2"]
        index = build_index(shard, IndexMode.ADVANCED, manifest.lexicon)
        assert len(index) == 2500
        assert all(len(ids) == 100 for ids in index.entries.values())

    def test_full_corpus_posting_mass(self, advanced_index):
        assert len(advanced_index) == 10_000
        assert (
            sum(len(ids) for ids in advanced_index.entries.values())
            == 10_000 * 100
        )

    def test_unknown_word_raises(self):
        lexicon = RootLexicon()
        docs = [Document("d0", "يلعبون", "لعب", "peer-1")]
        with pytest.raises(UnknownRoot):
            build_index(docs, IndexMode.ADVANCED, lexicon)

    def test_root_groups_restricted_to_shard(self, manifest):
        shard = manifest.docs_by_peer["peer-3"]
        index = build_index(shard, IndexMode.ADVANCED, manifest.lexicon)
        assert set(index.root_postings) == {d.root for d in shard}
        assert len(index.root_postings) == 25
        for root, ids in index.root_postings.items():
            assert ids == tuple(sorted(d.doc_id for d in shard if d.root == root))


class TestEmptyIndex:
    @pytest.mark.parametrize("mode", [IndexMode.SIMPLE, IndexMode.ADVANCED])
    def test_empty_docs(self, mode, lexicon):
        index = build_index([], mode, lexicon)
        assert len(index) == 0
        assert index.doc_count == 0
        assert index.lookup("لعب") == []


class TestLookup:
    def test_simple_exact_hit(self, manifest, simple_index):
        query = manifest.queries[0]
        found = simple_index.lookup(query.word)
        assert len(found) == 1

    def test_advanced_returns_whole_root_group(self, manifest, advanced_index):
        found = advanced_index.lookup("يلعبون")
        assert len(found) == 100
        assert set(found) == relevant_set("يلعبون", manifest)

    def test_absent_key_is_empty(self, simple_index, advanced_index):
        assert simple_index.lookup("زخرف") == []
        assert advanced_index.lookup("زخرف") == []

    def test_results_sorted_by_doc_id(self, advanced_index):
        found = advanced_index.lookup("ياكلون")
        assert found == sorted(found)

    def test_all_keys_are_normalized(self, simple_index, advanced_index):
        from rootsearch.normalize import normalize

        for index in (simple_index, advanced_index):
            for key in list(index.entries)[::211]:
                assert normalize(key) == key


class TestModeInvariants:
    def test_simple_contained_in_advanced_for_every_key(
        self, simple_index, advanced_index
    ):
        for key, ids in simple_index.entries.items():
            assert ids <= advanced_index.entries[key]

    def test_advanced_key_equivalence_within_root_groups(
        self, manifest, advanced_index
    ):
        for root in manifest.roots[::7]:
            words = sorted(manifest.lexicon.words_of(root))
            reference = advanced_index.lookup(words[0])
            for word in words[1:]:
                assert advanced_index.lookup(word) == reference

    def test_advanced_matches_relevance_oracle_sampled(self, manifest, advanced_index):
        for doc in manifest.documents[::29]:
            assert set(advanced_index.lookup(doc.word)) == relevant_set(
                doc.word, manifest
            )


class TestSnapshot:
    def test_round_trip(self, manifest, tmp_path):
        shard = manifest.docs_by_peer["peer-4"]
        index = build_index(shard, IndexMode.ADVANCED, manifest.lexicon)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.mode is IndexMode.ADVANCED
        assert loaded.doc_count == index.doc_count
        assert loaded.entries == index.entries
        assert loaded.root_postings == index.root_postings

    @pytest.mark.parametrize("mode", [IndexMode.SIMPLE, IndexMode.ADVANCED])
    def test_loaded_index_answers_like_built(self, manifest, mode, tmp_path):
        index = build_index(manifest.documents, mode, manifest.lexicon)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        for entry in manifest.queries:
            query = Query.parse(entry.query_id, entry.word)
            assert search_exact(query, loaded) == search_exact(query, index)
            assert search_expanded(query, loaded, manifest.lexicon) == search_expanded(
                query, index, manifest.lexicon
            )

    def test_rejects_version_1_snapshot(self, tmp_path):
        import pickle

        path = tmp_path / "v1.bin"
        path.write_bytes(pickle.dumps({
            "format": "rootsearch-index",
            "version": 1,
            "mode": "simple",
            "entries": {"يلعبون": ["d00001"]},
            "root_groups": {"لعب": ["يلعبون"]},
            "doc_count": 1,
        }))
        with pytest.raises(ValueError, match="not a rootsearch index snapshot"):
            load_index(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        import pickle

        path.write_bytes(pickle.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_index(path)
