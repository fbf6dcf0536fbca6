"""Root-postings answers against the per-term union they replaced.

The reference below is the pre-root-postings retrieval: expand the query
to its sorted root-mates, then union one exact-key posting per term.
Root-mates are regrouped here from the raw vocabulary, independently of
the lexicon's cached word tuples.
"""

import random

import pytest

from rootsearch.errors import UnknownRoot
from rootsearch.morphology import extract_root
from rootsearch.p2p import KIND_QUERY_FORWARD, KIND_QUERY_UP, p2p_search
from rootsearch.search import Query, expansion_terms, search_expanded

_PREFIXES = ("", "و", "ف", "ال", "وال", "بال", "لل")
_SUFFIXES = ("", "ها", "هم", "كم", "نا", "ه", "ات", "ون")
_DIACRITICS = ("َ", "ُ", "ِ", "ْ", "ّ", "ـ")


@pytest.fixture(scope="module")
def mates_by_root(lexicon):
    grouped: dict[str, list[str]] = {}
    for word in lexicon.vocabulary():
        grouped.setdefault(lexicon.root_of(word), []).append(word)
    return {root: tuple(sorted(words)) for root, words in grouped.items()}


@pytest.fixture(scope="module")
def probe_words(lexicon):
    """Every vocabulary word, 2,000 seeded noisy variants, and two edge cases.

    Of the noisy variants, 20 degrade to exact search and 100 resolve to a
    root absent from the corpus.
    """
    vocabulary = sorted(lexicon.vocabulary())
    rng = random.Random(2011)
    noisy = []
    for word in rng.sample(vocabulary, 2000):
        wrapped = rng.choice(_PREFIXES) + word + rng.choice(_SUFFIXES)
        noisy.append("".join(ch + rng.choice(("",) + _DIACRITICS) for ch in wrapped))
    # فه resolves to no root (degraded); زخرف resolves to a root absent from the corpus
    return vocabulary + noisy + ["فه", "زخرف"]


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


def test_advanced_peer_execute_equals_per_term_union(
    probe_words, overlay_advanced, lexicon
):
    peers = list(overlay_advanced.peers.values())
    term_sets = [
        expansion_terms(Query.parse(f"q{i}", word), lexicon)[0]
        for i, word in enumerate(probe_words)
    ]
    # payloads mixing roots and unknown words, which one query never sends
    vocabulary = sorted(lexicon.vocabulary())
    term_sets += [
        ("فه", vocabulary[k], vocabulary[-1 - k]) for k in range(0, len(vocabulary), 97)
    ]
    for terms in term_sets:
        for peer in peers:
            assert peer.execute(terms) == union_of_terms(terms, peer.index), (terms, peer.peer_id)


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
