"""Simulated super-peer overlay with full message accounting.

Each peer holds one postings map from key to the doc ids of its shard,
built by ``corpus.postings``, and each super-peer keeps one summary per
child: the keys of that child's map. The overlay's mode picks the key
once, for every node: a document's word in SIMPLE mode, its root in
ADVANCED mode. ``Overlay.keys_of`` is the one resolver from a payload's
words to those keys, and super-peers and peers call it.

Routing for one query, all on a deterministic FIFO message queue:

1. the origin peer only sends QUERY_UP to its super-peer with the query's
   term set (the single word in SIMPLE mode; every root-mate term in
   ADVANCED mode, from ``search.resolve``); it does not answer first, since
   its super-peer answers for the whole cluster, the origin included
2. the super-peer forwards (QUERY_FORWARD) to each child whose summary
   holds one of the payload's keys, and passes the query on (QUERY_UP) to
   its sibling super-peers so the other half of the network is reachable;
   siblings match their own children but do not re-flood
3. every request is answered by exactly one RESULTS_BACK carrying doc
   ids as a sorted, duplicate-free tuple; super-peers gather their
   children's and siblings' answers before replying, and the union arrives
   back at the origin as the one RESULTS_BACK it receives. A peer replies
   with its stored posting tuple, and a super-peer's gather passes a single
   non-empty answer through unchanged: only a gather of two or more
   non-empty answers merges and sorts

In ADVANCED mode the payload still carries every root-mate term, and each
node resolves it through the shared lexicon: a payload that is exactly one
root's word group costs one lookup and one tuple comparison, any other
payload one lookup per word. All terms of one query share a root, which is
why the default block assignment forwards to exactly one peer.

Messages (``OverlayMessage``) are immutable ``NamedTuple``s; peers,
super-peers and the overlay are plain classes, whose attributes the
routing loop reads on every message.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterable, NamedTuple

from .corpus import CorpusManifest, DocIds, gc_paused, postings
from .errors import OverlayMismatch
from .index import IndexMode
from .morphology import RootLexicon
from .search import P2P_ADVANCED, P2P_SIMPLE, Query, SearchOutcome, SearchResult, resolve

KIND_QUERY_UP = "QUERY_UP"
KIND_QUERY_FORWARD = "QUERY_FORWARD"
KIND_RESULTS_BACK = "RESULTS_BACK"

# The one map between a P2P engine's name and the key mode of its overlay.
ENGINE_MODES = {P2P_SIMPLE: IndexMode.SIMPLE, P2P_ADVANCED: IndexMode.ADVANCED}
_ENGINE_OF_MODE = {mode: engine for engine, mode in ENGINE_MODES.items()}


def merge(parts: Iterable[DocIds]) -> DocIds:
    """The union of sorted, duplicate-free doc-id tuples, sorted.

    At most one non-empty part is returned as it is; only two or more
    non-empty parts are merged and sorted.
    """
    nonempty = [part for part in parts if part]
    if len(nonempty) > 1:
        return tuple(sorted(set().union(*nonempty)))
    return nonempty[0] if nonempty else ()


class OverlayMessage(NamedTuple):
    seq: int
    kind: str
    src: str
    dst: str
    payload: tuple[str, ...]


class Transport:
    """In-process delivery; the send log doubles as the FIFO queue."""

    def __init__(self) -> None:
        self.log: list[OverlayMessage] = []

    def send(self, kind: str, src: str, dst: str, payload: tuple[str, ...]) -> None:
        log = self.log
        # tuple.__new__ builds the NamedTuple without its Python-level __new__ frame
        log.append(tuple.__new__(OverlayMessage, (len(log) + 1, kind, src, dst, payload)))


class PeerNode:
    def __init__(self, peer_id: str, parent: str, postings: dict[str, DocIds]) -> None:
        self.peer_id = peer_id
        self.parent = parent
        self.postings = postings

    def execute(self, keys: Iterable[str | None]) -> DocIds:
        """Local documents filed under any of ``keys``, sorted; a single
        matching key yields its stored posting tuple itself."""
        return merge([self.postings.get(key, ()) for key in keys])

    def handle(self, message: OverlayMessage, transport: Transport, overlay: "Overlay") -> None:
        # Peers only ever receive query forwards; they answer the sender.
        found = self.execute(overlay.keys_of(message.payload))
        transport.send(KIND_RESULTS_BACK, self.peer_id, message.src, found)


class SuperPeer:
    def __init__(
        self,
        superpeer_id: str,
        children: tuple[str, ...],
        summary: dict[str, frozenset[str]],
        siblings: tuple[str, ...],
    ) -> None:
        self.superpeer_id = superpeer_id
        self.children = children
        self.summary = summary
        # every other super-peer id, in sorted() order: a query from a peer
        # is passed on to these
        self.siblings = siblings

    def matching_children(self, keys: set[str | None]) -> list[str]:
        return [child for child in self.children if keys & self.summary[child]]

    def handle(
        self,
        message: OverlayMessage,
        transport: Transport,
        overlay: "Overlay",
        gather: dict[str, tuple[str, int, list[DocIds]]],
    ) -> None:
        if message.kind == KIND_RESULTS_BACK:
            # (requester, number of answers expected, answers so far)
            requester, expected, parts = gather[self.superpeer_id]
            parts.append(message.payload)
            if len(parts) == expected:
                transport.send(KIND_RESULTS_BACK, self.superpeer_id, requester, merge(parts))
            return

        # QUERY_UP: from the origin peer, or flooded over from a sibling.
        from_peer = message.src in overlay.peers
        targets = self.matching_children(overlay.keys_of(message.payload))
        siblings = self.siblings if from_peer else ()
        gather[self.superpeer_id] = (message.src, len(targets) + len(siblings), [])
        for child in targets:
            transport.send(KIND_QUERY_FORWARD, self.superpeer_id, child, message.payload)
        for sibling in siblings:
            transport.send(KIND_QUERY_UP, self.superpeer_id, sibling, message.payload)
        if not targets and not siblings:
            transport.send(KIND_RESULTS_BACK, self.superpeer_id, message.src, ())


class Overlay:
    def __init__(
        self,
        mode: IndexMode,
        peers: dict[str, PeerNode],
        superpeers: dict[str, SuperPeer],
        lexicon: RootLexicon,
    ) -> None:
        self.mode = mode
        self.peers = peers
        self.superpeers = superpeers
        self.lexicon = lexicon

    @property
    def engine(self) -> str:
        """The name of the P2P engine that searches this overlay."""
        return _ENGINE_OF_MODE[self.mode]

    def keys_of(self, words: tuple[str, ...]) -> set[str | None]:
        """The distinct keys of ``words``: the words themselves in SIMPLE
        mode, their roots in ADVANCED mode (None for a word outside the
        lexicon, which no peer files anything under)."""
        if self.mode is IndexMode.ADVANCED:
            return self.lexicon.roots_of(words)
        return set(words)


@gc_paused
def build_overlay(manifest: CorpusManifest, mode: IndexMode) -> Overlay:
    """Build peers, their postings and super-peer summaries from the manifest.

    Each document is filed under its word (SIMPLE) or its root (ADVANCED);
    the manifest's lexicon maps every word to that root by construction.

    Raises:
        OverlayMismatch: the manifest's peer assignment does not match its
            own spec (missing peer or wrong shard size).
    """
    spec = manifest.spec
    shard_size = spec.roots_per_peer * spec.words_per_root
    key = attrgetter("root" if mode is IndexMode.ADVANCED else "word")
    peers: dict[str, PeerNode] = {}
    superpeers: dict[str, SuperPeer] = {}
    children_of = manifest.superpeer_children()
    sp_ids = sorted(children_of)
    for sp_id, children in children_of.items():
        summary: dict[str, frozenset[str]] = {}
        for peer_id in children:
            shard = manifest.docs_by_peer.get(peer_id, ())
            if len(shard) != shard_size:
                raise OverlayMismatch(
                    f"{peer_id} holds {len(shard)} documents, spec says {shard_size}"
                )
            peer_postings = postings(shard, key)
            peers[peer_id] = PeerNode(peer_id, sp_id, peer_postings)
            summary[peer_id] = frozenset(peer_postings)
        siblings = tuple(sp for sp in sp_ids if sp != sp_id)
        superpeers[sp_id] = SuperPeer(sp_id, children, summary, siblings)
    return Overlay(mode, peers, superpeers, manifest.lexicon)


def p2p_search(query: Query, overlay: Overlay, origin: str) -> SearchOutcome:
    """Run one query from ``origin`` through the overlay.

    The found set is independent of the origin peer; the message log is
    deterministic for a fixed (overlay, query, origin).

    Raises:
        ValueError: ``origin`` is not a peer of the overlay.
    """
    peers = overlay.peers
    superpeers = overlay.superpeers
    origin_node = peers.get(origin)
    if origin_node is None:
        raise ValueError(f"unknown origin peer {origin!r}")

    if overlay.mode is IndexMode.ADVANCED:
        root, terms = resolve(query, overlay.lexicon)
        expanded, degraded = terms, root is None
    else:
        terms, expanded, degraded = (query.normalized,), (), False

    parts: list[DocIds] = []
    transport = Transport()
    transport.send(KIND_QUERY_UP, origin, origin_node.parent, terms)
    gather: dict[str, tuple[str, int, list[DocIds]]] = {}
    # peers are handed only QUERY_FORWARDs, at most one each (one parent, one QUERY_UP)
    contacted = 0
    # handlers append to the log while it is walked, so this drains the queue
    for message in transport.log:
        dst = message.dst
        peer = peers.get(dst)
        if peer is None:
            superpeers[dst].handle(message, transport, overlay, gather)
        elif dst == origin and message.kind == KIND_RESULTS_BACK:
            parts.append(message.payload)
        else:
            contacted += 1
            peer.handle(message, transport, overlay)

    result = tuple.__new__(SearchResult, (merge(parts), expanded, degraded))
    return tuple.__new__(SearchOutcome, (result, tuple(transport.log), contacted))


def format_message_log(messages: tuple[OverlayMessage, ...]) -> str:
    """One ``seq TAB kind TAB from TAB to TAB payload_size`` line per message."""
    return "".join(
        f"{m.seq}\t{m.kind}\t{m.src}\t{m.dst}\t{len(m.payload)}\n" for m in messages
    )
