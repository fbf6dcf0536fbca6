"""Root-postings answers against the per-term union they replaced.

The reference below is the pre-root-postings retrieval: expand the query
to its sorted root-mates, then union one exact-key posting per term.
Root-mates are regrouped here from the raw vocabulary, independently of
the lexicon's cached word tuples. Overlay peers are checked against the
same union, sorted, over an index built from their shard in the test
itself.
"""

import pytest

from rootsearch.errors import UnknownRoot
from rootsearch.index import IndexMode, build_index
from rootsearch.morphology import extract_root
from rootsearch.p2p import KIND_QUERY_FORWARD, KIND_QUERY_UP, p2p_search
from rootsearch.search import Query, resolve, search_expanded


@pytest.fixture(scope="module")
def mates_by_root(lexicon):
    grouped: dict[str, list[str]] = {}
    for word in lexicon.vocabulary():
        grouped.setdefault(lexicon.root_of(word), []).append(word)
    return {root: tuple(sorted(words)) for root, words in grouped.items()}


@pytest.fixture(scope="module")
def probe_words(lexicon, noisy_words):
    """Every vocabulary word, then the seeded noisy words and edge cases."""
    return sorted(lexicon.vocabulary()) + noisy_words


def union_of_terms(terms, index):
    found = set()
    for term in terms:
        found.update(index.entries.get(term, ()))
    return found


def reference_expanded(query, index, lexicon, mates_by_root):
    try:
        root = extract_root(query.normalized, lexicon)
    except UnknownRoot:
        terms, degraded = (query.normalized,), True
    else:
        terms, degraded = mates_by_root.get(root, ()), False
    return tuple(sorted(union_of_terms(terms, index))), terms, degraded


def test_edge_cases_take_their_paths(lexicon, mates_by_root):
    with pytest.raises(UnknownRoot):
        extract_root("فه", lexicon)
    assert extract_root("زخرف", lexicon) not in mates_by_root


def test_search_expanded_equals_per_term_union(
    probe_words, simple_index, lexicon, mates_by_root
):
    for i, word in enumerate(probe_words):
        query = Query.parse(f"q{i}", word)
        result = search_expanded(query, simple_index, lexicon)
        found, terms, degraded = reference_expanded(
            query, simple_index, lexicon, mates_by_root
        )
        assert (result.found, result.expanded_terms, result.degraded) == (
            found,
            terms,
            degraded,
        ), word


def routed_key_and_terms(query, mode, lexicon):
    """The one key ``p2p_search`` routes on, and the query's terms."""
    if mode is IndexMode.ADVANCED:
        return resolve(query, lexicon)
    return query.normalized, (query.normalized,)


def assert_peers_answer_like_shard_index(overlay, mode, probe_words, manifest, lexicon):
    queries = [Query.parse(f"q{i}", word) for i, word in enumerate(probe_words)]
    routed = [routed_key_and_terms(query, mode, lexicon) for query in queries]
    for peer_id, peer_postings in overlay.peers.items():
        index = build_index(manifest.docs_by_peer[peer_id], mode, lexicon)
        for key, terms in routed:
            expected = tuple(sorted(union_of_terms(terms, index)))
            assert peer_postings.get(key, ()) == expected, (terms, peer_id)


def test_advanced_peer_execute_equals_per_term_union(
    probe_words, manifest, overlay_advanced, lexicon
):
    assert_peers_answer_like_shard_index(
        overlay_advanced, IndexMode.ADVANCED, probe_words, manifest, lexicon
    )


def test_simple_peer_execute_equals_per_term_union(
    probe_words, manifest, overlay_simple, lexicon
):
    assert_peers_answer_like_shard_index(
        overlay_simple, IndexMode.SIMPLE, probe_words, manifest, lexicon
    )


def test_advanced_query_payloads_carry_all_sorted_root_mates(
    manifest, overlay_advanced, mates_by_root
):
    for entry in manifest.queries[::7]:
        for origin in overlay_advanced.peers:
            outcome = p2p_search(Query.parse(entry.query_id, entry.word), overlay_advanced, origin)
            requests = [
                m for m in outcome.messages if m.kind in (KIND_QUERY_UP, KIND_QUERY_FORWARD)
            ]
            assert requests
            for message in requests:
                assert message.payload == mates_by_root[entry.root]
                assert len(message.payload) == 100
