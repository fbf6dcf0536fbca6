"""Overlay topology, routing behavior and message accounting."""

import copy
import hashlib
import tempfile
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsearch.corpus import CorpusManifest, CorpusSpec, generate_corpus, relevant_set
from rootsearch.index import IndexMode, build_index
from rootsearch.p2p import (
    KIND_QUERY_FORWARD,
    KIND_QUERY_UP,
    KIND_RESULTS_BACK,
    Overlay,
    OverlayMessage,
    build_overlay,
    format_message_log,
    merge,
    p2p_search,
)
from rootsearch.search import (
    Query,
    SearchOutcome,
    SearchResult,
    resolve,
    search_exact,
    search_expanded,
)


def _with_documents(manifest, documents):
    """A copy of ``manifest`` holding ``documents`` instead of its own."""
    return CorpusManifest(
        manifest.spec, tuple(zip(*documents)), manifest.roots, manifest.queries,
        manifest.patterns_version,
    )


def _shard(manifest, peer_id):
    """The rows of ``peer_id``'s documents, in manifest order."""
    return tuple(d for d in manifest.documents if d.peer_id == peer_id)


def _children(overlay, sp):
    """The peers under super-peer ``sp``, in peer order."""
    return tuple(peer for peer, parent in overlay.parent.items() if parent == sp)


class TestBuildOverlay:
    def test_default_topology(self, overlay_simple):
        assert sorted(overlay_simple.routes) == ["sp-1", "sp-2"]
        assert sorted(overlay_simple.peers) == ["peer-1", "peer-2", "peer-3", "peer-4"]
        assert _children(overlay_simple, "sp-1") == ("peer-1", "peer-2")
        assert _children(overlay_simple, "sp-2") == ("peer-3", "peer-4")
        for peer_postings in overlay_simple.peers.values():
            assert sum(map(len, peer_postings.values())) == 2500

    def test_simple_summaries_are_word_sets(self, manifest, overlay_simple):
        for sp, route in overlay_simple.routes.items():
            for child in _children(overlay_simple, sp):
                summary = {k for k, holders in route.items() if child in holders}
                assert summary == {d.word for d in _shard(manifest, child)}
                assert len(summary) == 2500

    def test_advanced_summaries_are_root_sets(self, manifest, overlay_advanced):
        for sp, route in overlay_advanced.routes.items():
            for child in _children(overlay_advanced, sp):
                summary = {k for k, holders in route.items() if child in holders}
                assert len(summary) == 25
                assert summary == {d.root for d in _shard(manifest, child)}
            assert len(route) == 50

    def test_route_lists_the_children_holding_each_key(
        self, manifest, overlay_simple, overlay_advanced
    ):
        striped = _striped(manifest)
        # keys per child, then per super-peer
        for layout, overlay, key, per_child, per_sp in (
            (manifest, overlay_simple, "word", 2500, 5000),
            (manifest, overlay_advanced, "root", 25, 50),
            # every root on all four peers: children share ADVANCED keys
            (striped, build_overlay(striped, IndexMode.SIMPLE), "word", 2500, 5000),
            (striped, build_overlay(striped, IndexMode.ADVANCED), "root", 100, 100),
        ):
            for sp, route in overlay.routes.items():
                children = _children(overlay, sp)
                held = {
                    child: {getattr(d, key) for d in _shard(layout, child)}
                    for child in children
                }
                assert [len(keys) for keys in held.values()] == [per_child] * 2
                assert set(route) == set().union(*held.values())
                assert len(route) == per_sp
                for k, holders in route.items():
                    assert holders == tuple(c for c in children if k in held[c]), k

    def test_peer_postings_file_each_document_once(
        self, manifest, overlay_simple, overlay_advanced
    ):
        assert list(vars(overlay_simple)) == [
            "mode", "peers", "parent", "routes", "siblings", "lexicon"
        ]
        for overlay, key in (
            (overlay_simple, attrgetter("word")),
            (overlay_advanced, attrgetter("root")),
        ):
            for peer_id, peer_postings in overlay.peers.items():
                filed = sorted(
                    (k, doc_id) for k, ids in peer_postings.items() for doc_id in ids
                )
                expected = sorted(
                    (key(d), d.doc_id) for d in _shard(manifest, peer_id)
                )
                assert filed == expected, (overlay.mode, peer_id)


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

    def test_routing_adds_no_lexicon_lookup_beyond_resolve(self, manifest, overlay_advanced):
        class CountingMap(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        lexicon = copy.copy(overlay_advanced.lexicon)
        overlay = Overlay(
            overlay_advanced.mode,
            overlay_advanced.peers,
            overlay_advanced.parent,
            overlay_advanced.routes,
            overlay_advanced.siblings,
            lexicon,
        )

        def lookups(search, *args):
            lexicon._root_of = CountingMap(overlay_advanced.lexicon._root_of)
            search(*args)
            return lexicon._root_of.lookups

        # a root group, a root absent from the corpus, a degraded word, digits
        for word in (manifest.queries[9].word, "زخرف", "فه", "١٢٣"):
            query = Query.parse("q", word)
            # every node matches the key resolve found, without resolving it again
            assert lookups(p2p_search, query, overlay, "peer-1") == lookups(
                resolve, query, lexicon
            ), word


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
            own = overlay.parent[origin]
            flooded = [
                m.dst for m in outcome.messages if m.kind == KIND_QUERY_UP and m.src == own
            ]
            assert flooded == sorted(sp for sp in overlay.routes if sp != own)
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
        # a message's number is its place in the log, printed from 1
        lines = format_message_log(outcome.messages).splitlines()
        assert [line.split("\t")[0] for line in lines] == [
            str(n) for n in range(1, len(outcome.messages) + 1)
        ]

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
                assert msg.dst in _children(overlay_advanced, msg.src)

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
            assert overlay.peers[first.peer_id][key] == found
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


class _ReferenceTransport:
    """In-process delivery; the send log doubles as the FIFO queue."""

    def __init__(self):
        self.log = []

    def send(self, kind, src, dst, payload):
        self.log.append(OverlayMessage(kind, src, dst, payload))


def _reference_keys(payload, overlay):
    """The payload's distinct keys, resolved word by word: the words
    themselves in SIMPLE mode, their roots in ADVANCED mode."""
    if overlay.mode is IndexMode.ADVANCED:
        return {overlay.lexicon.root_of(word) for word in payload}
    return set(payload)


def _reference_peer_handle(peer_id, message, transport, overlay):
    keys = _reference_keys(message.payload, overlay)
    found = merge([overlay.peers[peer_id].get(key, ()) for key in keys])
    transport.send(KIND_RESULTS_BACK, peer_id, message.src, found)


def _reference_superpeer_handle(sp_id, message, transport, overlay, gather):
    if message.kind == KIND_RESULTS_BACK:
        requester, expected, parts = gather[sp_id]
        parts.append(message.payload)
        if len(parts) == expected:
            transport.send(KIND_RESULTS_BACK, sp_id, requester, merge(parts))
        return
    keys = _reference_keys(message.payload, overlay)
    children = _children(overlay, sp_id)
    targets = [child for child in children if keys & overlay.peers[child].keys()]
    siblings = overlay.siblings[sp_id] if message.src in overlay.peers else ()
    gather[sp_id] = (message.src, len(targets) + len(siblings), [])
    for child in targets:
        transport.send(KIND_QUERY_FORWARD, sp_id, child, message.payload)
    for sibling in siblings:
        transport.send(KIND_QUERY_UP, sp_id, sibling, message.payload)
    if not targets and not siblings:
        transport.send(KIND_RESULTS_BACK, sp_id, message.src, ())


def reference_p2p_search(query, overlay, origin):
    """The message-passing router that ``p2p_search`` replaces with one loop:
    a transport plus one handler per node kind, every node resolving the
    payload's keys through the lexicon on its own."""
    if overlay.mode is IndexMode.ADVANCED:
        root, terms = resolve(query, overlay.lexicon)
        expanded, degraded = terms, root is None
    else:
        terms, expanded, degraded = (query.normalized,), (), False
    transport = _ReferenceTransport()
    transport.send(KIND_QUERY_UP, origin, overlay.parent[origin], terms)
    gather, parts, contacted = {}, [], 0
    for message in transport.log:
        if message.dst not in overlay.peers:
            _reference_superpeer_handle(message.dst, message, transport, overlay, gather)
        elif message.dst == origin and message.kind == KIND_RESULTS_BACK:
            parts.append(message.payload)
        else:
            contacted += 1
            _reference_peer_handle(message.dst, message, transport, overlay)
    result = SearchResult(merge(parts), expanded, degraded)
    return SearchOutcome(result, tuple(transport.log), contacted)


def _striped(manifest):
    """``manifest`` with document i on peer-(i mod 4 + 1): every root spans
    all four peers, so gathers merge two or more non-empty answers."""
    return _with_documents(manifest, tuple(
        d._replace(peer_id=f"peer-{i % 4 + 1}") for i, d in enumerate(manifest.documents)
    ))


class TestReferenceRouter:
    """``p2p_search`` against the reference router: every message's place in
    the log, kind, src, dst and payload, the answer, its expansion terms,
    whether it degraded and the peers contacted, which the golden digest does
    not all cover."""

    @staticmethod
    def _assert_same_outcomes(words, overlays):
        for overlay in overlays:
            for origin in sorted(overlay.peers):
                for i, word in enumerate(words):
                    query = Query.parse(f"w{i}", word)
                    assert p2p_search(query, overlay, origin) == reference_p2p_search(
                        query, overlay, origin
                    ), (overlay.mode, origin, word)

    def test_block_layout(self, manifest, noisy_words, overlay_simple, overlay_advanced):
        words = [entry.word for entry in manifest.queries] + noisy_words + ["١٢٣"]
        self._assert_same_outcomes(words, (overlay_simple, overlay_advanced))

    def test_striped_layout_merges_several_answers(self, manifest, noisy_words):
        striped = _striped(manifest)
        overlays = [build_overlay(striped, mode) for mode in IndexMode]
        words = [entry.word for entry in manifest.queries] + noisy_words + ["١٢٣"]
        self._assert_same_outcomes(words, overlays)
        outcome = p2p_search(Query.parse("q", manifest.queries[0].word), overlays[1], "peer-1")
        into_own = [
            m for m in outcome.messages
            if m.kind == KIND_RESULTS_BACK and m.dst == "sp-1" and m.payload
        ]
        assert len(into_own) >= 2
        assert set(outcome.result.found) == set(striped.docs_by_root[manifest.queries[0].root])


# 8 roots x 4 words on 4 peers, two per super-peer: small enough to rebuild
# both overlays for every layout hypothesis draws
_SMALL_SPEC = CorpusSpec(
    root_count=8, words_per_root=4, peer_count=4, superpeer_count=2, roots_per_peer=2, seed=11
)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    manifest = generate_corpus(_SMALL_SPEC, tmp_path_factory.mktemp("corpus-small"))
    index = build_index(manifest.documents, IndexMode.SIMPLE, manifest.lexicon)
    return manifest, index


class TestRouterOverLayouts:
    """Any assignment of documents to peers that keeps every shard's size:
    ``p2p_search`` equals the reference router, its answer the centralized
    one, and it contacts exactly the peers holding the query's key."""

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(_SMALL_SPEC.total_documents)))
    def test_routed_answers_match_reference_and_centralized(self, small_corpus, order):
        manifest, index = small_corpus
        docs = manifest.documents
        layout = _with_documents(manifest, tuple(
            d._replace(peer_id=docs[j].peer_id) for d, j in zip(docs, order)
        ))
        words = [entry.word for entry in manifest.queries] + ["١٢٣"]
        for mode in IndexMode:
            overlay = build_overlay(layout, mode)
            for word in words:
                query = Query.parse("q", word)
                if mode is IndexMode.ADVANCED:
                    key = resolve(query, manifest.lexicon)[0]
                    central = search_expanded(query, index, manifest.lexicon)
                else:
                    key = query.normalized
                    central = search_exact(query, index)
                holders = {
                    d.peer_id for d in layout.documents
                    if (d.root if mode is IndexMode.ADVANCED else d.word) == key
                }
                for origin in sorted(overlay.peers):
                    case = (mode, origin, word)
                    outcome = p2p_search(query, overlay, origin)
                    assert outcome == reference_p2p_search(query, overlay, origin), case
                    assert outcome.result == central, case
                    assert outcome.peers_contacted == len(holders), case


@st.composite
def _topologies(draw):
    """Small corpus shapes: 1-6 peers, any divisor of the peer count as the
    super-peer count, 1-2 roots per peer and 1-4 words per root."""
    peers = draw(st.integers(1, 6))
    superpeers = draw(st.sampled_from([d for d in range(1, peers + 1) if peers % d == 0]))
    roots_per_peer = draw(st.integers(1, 2))
    return CorpusSpec(
        root_count=peers * roots_per_peer,
        words_per_root=draw(st.integers(1, 4)),
        peer_count=peers,
        superpeer_count=superpeers,
        roots_per_peer=roots_per_peer,
        seed=draw(st.integers(0, 99)),
    )


class TestTopologies:
    """The overlay tables and the message count of every query, from every
    origin, over small corpus shapes: 2·S + 2·F messages for S super-peers
    and F peers holding the query's key."""

    @settings(max_examples=100, deadline=None)
    @given(_topologies())
    def test_tables_and_message_counts(self, spec):
        with tempfile.TemporaryDirectory() as out:
            manifest = generate_corpus(spec, out)
        index = build_index(manifest.documents, IndexMode.SIMPLE, manifest.lexicon)
        peer_ids = spec.peer_ids()
        words = [entry.word for entry in manifest.queries] + ["١٢٣"]
        for mode in IndexMode:
            overlay = build_overlay(manifest, mode)
            superpeers = sorted(overlay.routes)
            assert len(superpeers) == spec.superpeer_count
            assert list(overlay.parent) == list(overlay.peers) == list(peer_ids)
            assert set(overlay.parent.values()) == set(superpeers)
            for sp, route in overlay.routes.items():
                assert overlay.siblings[sp] == tuple(s for s in superpeers if s != sp)
                for holders in route.values():
                    assert all(overlay.parent[peer] == sp for peer in holders)
                    assert holders == tuple(p for p in peer_ids if p in holders)
            for word in words:
                query = Query.parse("q", word)
                if mode is IndexMode.ADVANCED:
                    key = resolve(query, manifest.lexicon)[0]
                    central = search_expanded(query, index, manifest.lexicon)
                else:
                    key = query.normalized
                    central = search_exact(query, index)
                holding = len({
                    d.peer_id for d in manifest.documents
                    if (d.root if mode is IndexMode.ADVANCED else d.word) == key
                })
                for origin in peer_ids:
                    case = (spec, mode, origin, word)
                    outcome = p2p_search(query, overlay, origin)
                    messages = outcome.messages
                    assert outcome.result == central, case
                    assert len(messages) == 2 * spec.superpeer_count + 2 * holding, case
                    assert outcome.peers_contacted == holding, case
                    replies = [m for m in messages if m.kind == KIND_RESULTS_BACK]
                    for request in messages:
                        if request.kind != KIND_RESULTS_BACK:
                            answers = [
                                r for r in replies if (r.src, r.dst) == (request.dst, request.src)
                            ]
                            assert len(answers) == 1, case
                    assert messages[-1].kind == KIND_RESULTS_BACK, case
                    assert messages[-1].dst == origin, case
                    assert [m.dst for m in replies].count(origin) == 1, case
