"""Simulated super-peer overlay with full message accounting.

Each peer holds one postings map from key to the doc ids of its shard,
built by ``corpus.postings``, and each super-peer keeps one summary per
child: the keys of that child's map. The overlay's mode picks the key
for every node: a document's word in SIMPLE mode, its root in ADVANCED
mode. ``p2p_search`` decides a query's one key once, at the origin: the
normalized word in SIMPLE mode, the root ``search.resolve`` found in
ADVANCED mode (``None``, which no node holds, when the query degrades).

Routing for one query, all on a deterministic FIFO message queue that
``p2p_search`` drains in one loop:

1. the origin peer only sends QUERY_UP to its super-peer with the query's
   term set (the single word in SIMPLE mode; every root-mate term in
   ADVANCED mode, from ``search.resolve``); it does not answer first, since
   its super-peer answers for the whole cluster, the origin included
2. a super-peer receiving a QUERY_UP forwards (QUERY_FORWARD) to each child
   whose summary holds the query's key and, when the sender is a peer,
   passes the query on (QUERY_UP) to its sibling super-peers so the other
   half of the network is reachable; siblings match their own children but
   do not re-flood
3. every request is answered by exactly one RESULTS_BACK carrying doc
   ids as a sorted, duplicate-free tuple; super-peers gather their
   children's and siblings' answers before replying, and the union arrives
   back at the origin as the one RESULTS_BACK it receives. A peer replies
   with the posting tuple it stores under the key, and a super-peer's
   gather passes a single non-empty answer through unchanged: only a
   gather of two or more non-empty answers merges and sorts

In ADVANCED mode the payload still carries every root-mate term, which no
node reads. All terms of one query share its root, which is why the default
block assignment forwards to exactly one peer.

Messages (``OverlayMessage``) are immutable ``NamedTuple``s; peers,
super-peers and the overlay are plain classes that hold the overlay's data
for the routing loop.
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


class PeerNode:
    def __init__(self, peer_id: str, parent: str, postings: dict[str, DocIds]) -> None:
        self.peer_id = peer_id
        self.parent = parent
        self.postings = postings


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
        key, terms = resolve(query, overlay.lexicon)
        expanded, degraded = terms, key is None
    else:
        key = query.normalized
        terms, expanded, degraded = (key,), (), False

    new = tuple.__new__  # builds each NamedTuple without its Python-level __new__ frame
    log = [new(OverlayMessage, (1, KIND_QUERY_UP, origin, origin_node.parent, terms))]
    send = log.append
    # super-peer id -> (requester, number of answers expected, answers so far)
    gather: dict[str, tuple[str, int, list[DocIds]]] = {}
    found: DocIds = ()
    # peers are handed only QUERY_FORWARDs, at most one each (one parent, one QUERY_UP)
    contacted = 0
    # the branches append to the log while it is walked, so this drains the queue
    for _seq, kind, src, dst, payload in log:
        peer = peers.get(dst)
        if peer is not None:
            if kind == KIND_RESULTS_BACK:
                # only the origin sent a QUERY_UP, so only it hears a reply
                found = payload
            else:
                contacted += 1
                send(new(OverlayMessage, (
                    len(log) + 1, KIND_RESULTS_BACK, dst, src, peer.postings.get(key, ()))))
        elif kind == KIND_RESULTS_BACK:
            requester, expected, parts = gather[dst]
            parts.append(payload)
            if len(parts) == expected:
                send(new(OverlayMessage, (
                    len(log) + 1, KIND_RESULTS_BACK, dst, requester, merge(parts))))
        else:
            # QUERY_UP: from the origin peer, or flooded over from a sibling
            sp = superpeers[dst]
            summary = sp.summary
            targets = [child for child in sp.children if key in summary[child]]
            siblings = sp.siblings if src in peers else ()
            gather[dst] = (src, len(targets) + len(siblings), [])
            for child in targets:
                send(new(OverlayMessage, (len(log) + 1, KIND_QUERY_FORWARD, dst, child, terms)))
            for sibling in siblings:
                send(new(OverlayMessage, (len(log) + 1, KIND_QUERY_UP, dst, sibling, terms)))
            if not targets and not siblings:
                send(new(OverlayMessage, (len(log) + 1, KIND_RESULTS_BACK, dst, src, ())))

    result = new(SearchResult, (found, expanded, degraded))
    return new(SearchOutcome, (result, tuple(log), contacted))


def format_message_log(messages: tuple[OverlayMessage, ...]) -> str:
    """One ``seq TAB kind TAB from TAB to TAB payload_size`` line per message."""
    return "".join(
        f"{m.seq}\t{m.kind}\t{m.src}\t{m.dst}\t{len(m.payload)}\n" for m in messages
    )
