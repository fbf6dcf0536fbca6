"""Overlay topology, routing behavior and message accounting."""

import copy
import hashlib
from operator import attrgetter

import pytest

from rootsearch.corpus import CorpusManifest, CorpusSpec, generate_corpus, relevant_set
from rootsearch.errors import OverlayMismatch
from rootsearch.index import IndexMode
from rootsearch.p2p import (
    KIND_QUERY_FORWARD,
    KIND_QUERY_UP,
    KIND_RESULTS_BACK,
    Overlay,
    PeerNode,
    build_overlay,
    format_message_log,
    merge,
    p2p_search,
)
from rootsearch.search import Query, search_exact, search_expanded


def _with_documents(manifest, documents):
    """A copy of ``manifest`` holding ``documents`` instead of its own."""
    return CorpusManifest(
        manifest.spec, documents, manifest.roots, manifest.queries, manifest.patterns_version
    )


class TestBuildOverlay:
    def test_default_topology(self, overlay_simple):
        assert sorted(overlay_simple.superpeers) == ["sp-1", "sp-2"]
        assert sorted(overlay_simple.peers) == ["peer-1", "peer-2", "peer-3", "peer-4"]
        assert overlay_simple.superpeers["sp-1"].children == ("peer-1", "peer-2")
        assert overlay_simple.superpeers["sp-2"].children == ("peer-3", "peer-4")
        for peer in overlay_simple.peers.values():
            assert sum(map(len, peer.postings.values())) == 2500

    def test_simple_summaries_are_word_sets(self, manifest, overlay_simple):
        for sp in overlay_simple.superpeers.values():
            for child, summary in sp.summary.items():
                assert summary == {d.word for d in manifest.docs_by_peer[child]}
                assert len(summary) == 2500

    def test_advanced_summaries_are_root_sets(self, manifest, overlay_advanced):
        for sp in overlay_advanced.superpeers.values():
            union = set()
            for child, summary in sp.summary.items():
                assert len(summary) == 25
                assert summary == {d.root for d in manifest.docs_by_peer[child]}
                union |= summary
            assert len(union) == 50

    def test_peer_postings_file_each_document_once(
        self, manifest, overlay_simple, overlay_advanced
    ):
        assert list(vars(PeerNode("peer-1", "sp-1", {}))) == [
            "peer_id", "parent", "postings"
        ]
        for overlay, key in (
            (overlay_simple, attrgetter("word")),
            (overlay_advanced, attrgetter("root")),
        ):
            for peer_id, peer in overlay.peers.items():
                filed = sorted(
                    (k, doc_id) for k, ids in peer.postings.items() for doc_id in ids
                )
                expected = sorted(
                    (key(d), d.doc_id) for d in manifest.docs_by_peer[peer_id]
                )
                assert filed == expected, (overlay.mode, peer_id)

    def test_shard_mismatch_rejected(self, micro_corpus):
        _, manifest = micro_corpus
        broken = _with_documents(
            manifest, tuple(d for d in manifest.documents if d.peer_id != "peer-2")
        )
        with pytest.raises(OverlayMismatch):
            build_overlay(broken, IndexMode.SIMPLE)


class TestP2PSearch:
    def test_simple_finds_the_single_exact_document(self, manifest, overlay_simple):
        entry = manifest.queries[0]
        outcome = p2p_search(Query.parse(entry.query_id, entry.word), overlay_simple, "peer-1")
        assert len(outcome.result.found) == 1
        assert outcome.result.expanded_terms == ()

    def test_advanced_finds_whole_root_group(self, manifest, overlay_advanced):
        entry = manifest.queries[1]
        outcome = p2p_search(Query.parse(entry.query_id, entry.word), overlay_advanced, "peer-1")
        assert set(outcome.result.found) == relevant_set(entry.word, manifest)
        assert len(outcome.result.expanded_terms) == 100

    def test_advanced_forwards_to_exactly_the_owner_peer(
        self, manifest, overlay_advanced
    ):
        for entry in manifest.queries[::11]:
            outcome = p2p_search(
                Query.parse(entry.query_id, entry.word), overlay_advanced, "peer-2"
            )
            targets = {
                m.dst for m in outcome.messages if m.kind == KIND_QUERY_FORWARD
            }
            assert targets == manifest.peers_of_root[entry.root]
            assert outcome.peers_contacted == 1

    def test_found_set_is_origin_independent(self, manifest, overlay_simple, overlay_advanced):
        for overlay in (overlay_simple, overlay_advanced):
            for entry in manifest.queries[::17]:
                query = Query.parse(entry.query_id, entry.word)
                results = {
                    p2p_search(query, overlay, origin).result.found
                    for origin in overlay.peers
                }
                assert len(results) == 1

    def test_deterministic_message_log(self, manifest, overlay_advanced):
        query = Query.parse("q", manifest.queries[9].word)
        first = p2p_search(query, overlay_advanced, "peer-3")
        second = p2p_search(query, overlay_advanced, "peer-3")
        assert first.messages == second.messages
        assert first.result == second.result

    def test_degraded_advanced_query(self, overlay_advanced):
        outcome = p2p_search(Query.parse("q", "فه"), overlay_advanced, "peer-1")
        assert outcome.result.degraded
        assert outcome.result.found == ()
        assert outcome.peers_contacted == 0

    def test_unknown_origin_rejected(self, overlay_simple):
        with pytest.raises(ValueError):
            p2p_search(Query.parse("q", "لعب"), overlay_simple, "peer-9")

    def test_each_node_resolves_a_root_group_with_one_lookup(self, manifest, overlay_advanced):
        class CountingMap(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        lexicon = copy.copy(overlay_advanced.lexicon)
        lexicon._root_of = CountingMap(lexicon._root_of)
        overlay = Overlay(
            overlay_advanced.mode, overlay_advanced.peers, overlay_advanced.superpeers, lexicon
        )
        outcome = p2p_search(Query.parse("q", manifest.queries[9].word), overlay, "peer-1")
        requests = [m for m in outcome.messages if m.kind != KIND_RESULTS_BACK]
        assert len(outcome.result.expanded_terms) == 100
        # extract_root's lookup and one per node a request reaches; the origin
        # only sends, so it resolves nothing itself
        assert lexicon._root_of.lookups == 1 + len(requests) == 4


class TestOriginHearsOneAnswer:
    def test_the_origin_gets_one_results_back_last_holding_the_answer(
        self, manifest, overlay_simple, overlay_advanced
    ):
        # the origin does not answer first: its own documents, when it owns
        # the key, come back inside its super-peer's one reply
        for overlay in (overlay_simple, overlay_advanced):
            for origin in sorted(overlay.peers):
                for entry in manifest.queries:
                    query = Query.parse(entry.query_id, entry.word)
                    outcome = p2p_search(query, overlay, origin)
                    case = (overlay.mode, origin, entry.word)
                    answers = [
                        m for m in outcome.messages
                        if m.kind == KIND_RESULTS_BACK and m.dst == origin
                    ]
                    assert answers == [outcome.messages[-1]], case
                    assert answers[0].payload == outcome.result.found, case
                    forwarded = {
                        m.dst for m in outcome.messages if m.kind == KIND_QUERY_FORWARD
                    }
                    assert outcome.peers_contacted == len(forwarded), case


class TestCentralizedEquivalence:
    def test_simple_equals_exact_for_all_queries(
        self, manifest, overlay_simple, simple_index
    ):
        for entry in manifest.queries:
            query = Query.parse(entry.query_id, entry.word)
            routed = p2p_search(query, overlay_simple, "peer-1").result.found
            central = search_exact(query, simple_index).found
            assert routed == central

    def test_advanced_equals_expanded_for_all_queries(
        self, manifest, overlay_advanced, simple_index, lexicon
    ):
        for entry in manifest.queries:
            query = Query.parse(entry.query_id, entry.word)
            routed = p2p_search(query, overlay_advanced, "peer-1").result.found
            central = search_expanded(query, simple_index, lexicon).found
            assert routed == central

    def test_noisy_words_cross_both_overlays_unchanged(
        self, noisy_words, overlay_simple, overlay_advanced, simple_index, lexicon
    ):
        origins = sorted(overlay_simple.peers)
        for i, word in enumerate(noisy_words):
            query = Query.parse(f"n{i}", word)
            origin = origins[i % len(origins)]
            assert (
                p2p_search(query, overlay_simple, origin).result.found
                == search_exact(query, simple_index).found
            ), word
            assert (
                p2p_search(query, overlay_advanced, origin).result.found
                == search_expanded(query, simple_index, lexicon).found
            ), word


class TestDegenerateTopology:
    def test_single_peer_routing_is_local(self, tmp_path):
        spec = CorpusSpec(
            root_count=1, words_per_root=4, peer_count=1,
            superpeer_count=1, roots_per_peer=1, seed=5,
        )
        manifest = generate_corpus(spec, tmp_path)
        overlay = build_overlay(manifest, IndexMode.ADVANCED)
        entry = manifest.queries[0]
        outcome = p2p_search(Query.parse(entry.query_id, entry.word), overlay, "peer-1")
        assert set(outcome.result.found) == relevant_set(entry.word, manifest)
        assert outcome.peers_contacted == 1  # forwarded back to the lone peer
        kinds = [m.kind for m in outcome.messages]
        assert kinds == [
            KIND_QUERY_UP,
            KIND_QUERY_FORWARD,
            KIND_RESULTS_BACK,
            KIND_RESULTS_BACK,
        ]


class TestSiblingFlood:
    def test_siblings_are_sent_in_sorted_id_order(self, tmp_path):
        # ten super-peers: sorted() puts sp-10 between sp-1 and sp-2
        spec = CorpusSpec(
            root_count=20, words_per_root=2, peer_count=20,
            superpeer_count=10, roots_per_peer=1, seed=3,
        )
        manifest = generate_corpus(spec, tmp_path)
        overlay = build_overlay(manifest, IndexMode.SIMPLE)
        entry = manifest.queries[0]
        for origin in ("peer-1", "peer-7", "peer-20"):
            outcome = p2p_search(Query.parse(entry.query_id, entry.word), overlay, origin)
            own = overlay.peers[origin].parent
            flooded = [
                m.dst for m in outcome.messages if m.kind == KIND_QUERY_UP and m.src == own
            ]
            assert flooded == sorted(sp for sp in overlay.superpeers if sp != own)
            if origin == "peer-7":  # under sp-4
                assert flooded[:3] == ["sp-1", "sp-10", "sp-2"]

    def test_message_fields_cannot_be_assigned(self, manifest, overlay_simple):
        entry = manifest.queries[0]
        message = p2p_search(Query.parse("q", entry.word), overlay_simple, "peer-1").messages[0]
        with pytest.raises(AttributeError):
            message.payload = ()


class TestMessageLog:
    @pytest.fixture()
    def outcome(self, manifest, overlay_advanced):
        entry = manifest.queries[4]
        return p2p_search(Query.parse(entry.query_id, entry.word), overlay_advanced, "peer-4")

    def test_sequence_numbers_are_dense(self, outcome):
        assert [m.seq for m in outcome.messages] == list(
            range(1, len(outcome.messages) + 1)
        )

    def test_every_results_back_answers_a_prior_request(self, outcome):
        for i, msg in enumerate(outcome.messages):
            if msg.kind != KIND_RESULTS_BACK:
                continue
            assert any(
                prior.kind in (KIND_QUERY_UP, KIND_QUERY_FORWARD)
                and prior.src == msg.dst
                and prior.dst == msg.src
                for prior in outcome.messages[:i]
            )

    def test_every_request_is_answered_exactly_once(self, outcome):
        requests = [
            m for m in outcome.messages if m.kind in (KIND_QUERY_UP, KIND_QUERY_FORWARD)
        ]
        replies = [m for m in outcome.messages if m.kind == KIND_RESULTS_BACK]
        assert len(requests) == len(replies)
        for request in requests:
            matching = [
                r for r in replies if r.src == request.dst and r.dst == request.src
            ]
            assert len(matching) == 1

    def test_forwards_target_children_of_sender(self, outcome, overlay_advanced):
        for msg in outcome.messages:
            if msg.kind == KIND_QUERY_FORWARD:
                assert msg.dst in overlay_advanced.superpeers[msg.src].children

    def test_export_format(self, outcome):
        text = format_message_log(outcome.messages)
        lines = text.splitlines()
        assert len(lines) == len(outcome.messages)
        for line in lines:
            seq, kind, src, dst, size = line.split("\t")
            assert seq.isdigit() and size.isdigit()
            assert kind in (KIND_QUERY_UP, KIND_QUERY_FORWARD, KIND_RESULTS_BACK)


def _message_line(*fields):
    return ("\t".join(fields) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def routed_outcomes(manifest, noisy_words, overlay_simple, overlay_advanced):
    """Every manifest query and noisy word, through both overlays from every origin."""
    words = [entry.word for entry in manifest.queries] + noisy_words
    return [
        p2p_search(Query.parse(f"w{i}", word), overlay, origin)
        for overlay in (overlay_simple, overlay_advanced)
        for origin in sorted(overlay.peers)
        for i, word in enumerate(words)
    ]


class TestGoldenMessageLog:
    # SHA-256 over every message's (kind, src, dst, payload) and every found
    # tuple of ``routed_outcomes``: a change to any message or answer of
    # either overlay, from any origin, changes it
    GOLDEN_DIGEST = "b23983384fb29a8724f5cec1553d2e2261d8107a6acd26a32229a3207f17ed86"

    def test_messages_and_answers_match_the_pinned_digest(self, routed_outcomes):
        digest = hashlib.sha256()
        for outcome in routed_outcomes:
            for m in outcome.messages:
                digest.update(_message_line(m.kind, m.src, m.dst, " ".join(m.payload)))
            digest.update(_message_line("found", " ".join(outcome.result.found)))
        assert digest.hexdigest() == self.GOLDEN_DIGEST


class TestSortedAnswers:
    def test_every_answer_is_strictly_increasing(self, routed_outcomes):
        for outcome in routed_outcomes:
            answers = [m.payload for m in outcome.messages if m.kind == KIND_RESULTS_BACK]
            for ids in answers + [outcome.result.found]:
                assert all(a < b for a, b in zip(ids, ids[1:])), ids

    def test_repeated_doc_id_in_a_shard_is_answered_once(self, micro_corpus):
        _, manifest = micro_corpus
        documents = list(manifest.documents)
        documents[1] = documents[0]  # same shard, so the shard size holds
        repeated = _with_documents(manifest, tuple(documents))
        first = documents[0]
        root_mates = tuple(sorted({d.doc_id for d in documents if d.root == first.root}))
        for mode, key, found in (
            (IndexMode.SIMPLE, first.word, (first.doc_id,)),
            (IndexMode.ADVANCED, first.root, root_mates),
        ):
            overlay = build_overlay(repeated, mode)
            assert overlay.peers[first.peer_id].postings[key] == found
            for origin in overlay.peers:
                outcome = p2p_search(Query.parse("q", first.word), overlay, origin)
                assert outcome.result.found == found, (mode, origin)
                for message in outcome.messages:
                    assert len(set(message.payload)) == len(message.payload)


class TestMerge:
    def test_a_single_answer_passes_through(self):
        part = ("d1", "d3")
        assert merge([(), part, ()]) is part
        assert merge([part]) is part
        assert merge([]) == merge([(), ()]) == ()

    def test_several_answers_are_unioned_and_sorted(self):
        assert merge([("d2", "d4"), ("d1", "d2"), (), ("d3",)]) == ("d1", "d2", "d3", "d4")
