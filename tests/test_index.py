"""Index builds in both modes, exact lookup, and the mode invariants."""

from operator import attrgetter

import pytest

from rootsearch.corpus import Document, postings, relevant_set
from rootsearch.errors import UnknownRoot
from rootsearch.index import IndexMode, build_index
from rootsearch.morphology import RootLexicon


class TestSimpleBuild:
    def test_peer_shard_has_one_key_per_document(self, manifest):
        shard = manifest.docs_by_peer["peer-1"]
        index = build_index(shard, IndexMode.SIMPLE, manifest.lexicon)
        assert len(index.entries) == 2500
        assert all(len(ids) == 1 for ids in index.entries.values())

    def test_document_indexed_under_its_own_word_only(self, manifest, simple_index):
        doc = manifest.documents[42]
        assert simple_index.lookup(doc.word) == (doc.doc_id,)

    def test_total_posting_mass_equals_doc_count(self, simple_index):
        assert sum(len(ids) for ids in simple_index.entries.values()) == 10_000


class TestAdvancedBuild:
    def test_peer_shard_keys_and_posting_sizes(self, manifest):
        shard = manifest.docs_by_peer["peer-2"]
        index = build_index(shard, IndexMode.ADVANCED, manifest.lexicon)
        assert len(index.entries) == 2500
        assert all(len(ids) == 100 for ids in index.entries.values())

    def test_full_corpus_posting_mass(self, advanced_index):
        assert len(advanced_index.entries) == 10_000
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
        assert index.entries == {} and index.root_postings == {}
        assert index.lookup("لعب") == ()


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
        assert simple_index.lookup("زخرف") == ()
        assert advanced_index.lookup("زخرف") == ()

    def test_results_sorted_by_doc_id(self, advanced_index):
        found = advanced_index.lookup("ياكلون")
        assert found == tuple(sorted(found))

    def test_all_keys_are_normalized(self, simple_index, advanced_index):
        from rootsearch.normalize import normalize

        for index in (simple_index, advanced_index):
            for key in list(index.entries)[::211]:
                assert normalize(key) == key


class TestModeInvariants:
    def test_simple_contained_in_advanced_for_every_key(
        self, simple_index, advanced_index
    ):
        # sets: on tuples, <= would be a lexicographic comparison
        for key, ids in simple_index.entries.items():
            assert set(ids) <= set(advanced_index.entries[key])

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



def _docs(*rows):
    return [Document(doc_id, word, "لعب", "peer-1") for doc_id, word in rows]


def _set_reference(pairs):
    """key -> sorted doc ids, grouped through sets, independently of ``postings``."""
    grouped = {}
    for key, doc_id in pairs:
        grouped.setdefault(key, set()).add(doc_id)
    return {key: tuple(sorted(ids)) for key, ids in grouped.items()}


class TestPostings:
    def test_unsorted_input_comes_back_sorted(self):
        docs = _docs(("d3", "w"), ("d1", "w"), ("d2", "w"))
        assert postings(docs, attrgetter("word")) == {"w": ("d1", "d2", "d3")}

    def test_repeated_id_collapses_to_one(self):
        docs = _docs(("d2", "w"), ("d1", "w"), ("d2", "w"))
        assert postings(docs, attrgetter("word")) == {"w": ("d1", "d2")}

    def test_lone_id_is_stored_as_a_one_tuple(self):
        filed = postings(_docs(("d1", "w"), ("d2", "x"), ("d3", "x")), attrgetter("word"))
        assert filed == {"w": ("d1",), "x": ("d2", "d3")}
        assert all(type(ids) is tuple for ids in filed.values())

    def test_advanced_root_mate_keys_share_one_tuple(self, manifest, advanced_index):
        for root in manifest.roots:
            stored = advanced_index.root_postings[root]
            for word in manifest.lexicon.words_of(root):
                assert advanced_index.entries[word] is stored

    def test_builds_equal_a_set_reference(
        self, manifest, simple_index, advanced_index, overlay_simple, overlay_advanced
    ):
        docs = manifest.documents
        by_root = _set_reference((d.root, d.doc_id) for d in docs)
        assert simple_index.entries == _set_reference((d.word, d.doc_id) for d in docs)
        assert simple_index.root_postings == by_root
        assert advanced_index.root_postings == by_root
        assert advanced_index.entries == {
            word: ids for root, ids in by_root.items()
            for word in manifest.lexicon.words_of(root)
        }
        for overlay, key in ((overlay_simple, "word"), (overlay_advanced, "root")):
            for peer_id, peer_postings in overlay.peers.items():
                shard = manifest.docs_by_peer[peer_id]
                expected = _set_reference((getattr(d, key), d.doc_id) for d in shard)
                assert peer_postings == expected, (overlay.mode, peer_id)
