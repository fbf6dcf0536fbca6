"""Simulated super-peer overlay with full message accounting.

Peers hold document shards with local indexes; each super-peer keeps one
summary per child (SIMPLE: the child's surface words; ADVANCED: the roots
of its shard) and routes queries by matching against those summaries.

Routing for one query, all on a deterministic FIFO message queue:

1. the origin peer answers from its local index, then sends QUERY_UP to
   its super-peer with the query's key set (the single word in SIMPLE
   mode; every root-mate term in ADVANCED mode, expanded at the origin)
2. the super-peer forwards (QUERY_FORWARD) to each child whose summary
   matches the key set, and passes the query on (QUERY_UP) to its sibling
   super-peers so the other half of the network is reachable; siblings
   match their own children but do not re-flood
3. every request is answered by exactly one RESULTS_BACK carrying doc
   ids; super-peers gather their children's and siblings' answers before
   replying, and the union arrives back at the origin

In ADVANCED mode the payload still carries every root-mate term, but
super-peers and peers both work on roots: each resolves the incoming term
set to its distinct roots in one pass through the shared lexicon. The
super-peer matches those roots against its summaries, and the peer unions
one root posting of its local index per root. All terms of one query share
a root, which is why the default block assignment forwards to exactly one
peer.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusManifest, Document
from .errors import OverlayMismatch
from .index import IndexMode, InvertedIndex, build_index
from .morphology import RootLexicon
from .search import P2P_ADVANCED, P2P_SIMPLE, Query, SearchResult, expansion_terms

KIND_QUERY_UP = "QUERY_UP"
KIND_QUERY_FORWARD = "QUERY_FORWARD"
KIND_RESULTS_BACK = "RESULTS_BACK"


@dataclass(frozen=True)
class OverlayMessage:
    seq: int
    kind: str
    src: str
    dst: str
    payload: tuple[str, ...]


class Transport:
    """FIFO in-process delivery with a complete send log."""

    def __init__(self) -> None:
        self._queue: deque[OverlayMessage] = deque()
        self.log: list[OverlayMessage] = []

    def send(self, kind: str, src: str, dst: str, payload: tuple[str, ...]) -> None:
        message = OverlayMessage(len(self.log) + 1, kind, src, dst, tuple(payload))
        self.log.append(message)
        self._queue.append(message)

    def pop(self) -> OverlayMessage:
        return self._queue.popleft()

    def pending(self) -> bool:
        return bool(self._queue)


@dataclass(eq=False)
class PeerNode:
    peer_id: str
    parent: str
    shard: tuple[Document, ...]
    index: InvertedIndex
    lexicon: RootLexicon

    def execute(self, terms: tuple[str, ...]) -> set[str]:
        """Local documents matching any term: by word in SIMPLE mode, by the
        terms' roots in ADVANCED mode."""
        if self.index.mode is IndexMode.ADVANCED:
            postings, keys = self.index.root_postings, self.lexicon.roots_of(terms)
        else:
            postings, keys = self.index.entries, terms
        found: set[str] = set()
        for key in keys:
            found.update(postings.get(key, ()))
        return found

    def handle(self, message: OverlayMessage, transport: Transport) -> None:
        # Peers only ever receive query forwards; they answer the sender.
        found = self.execute(message.payload)
        transport.send(
            KIND_RESULTS_BACK, self.peer_id, message.src, tuple(sorted(found))
        )


@dataclass(eq=False)
class SuperPeer:
    superpeer_id: str
    children: tuple[str, ...]
    summary: dict[str, frozenset[str]]

    def matching_children(self, terms: tuple[str, ...], overlay: "Overlay") -> list[str]:
        if overlay.mode is IndexMode.SIMPLE:
            keys = set(terms)
        else:
            keys = overlay.lexicon.roots_of(terms)
        return [child for child in self.children if keys & self.summary[child]]

    def handle(
        self,
        message: OverlayMessage,
        transport: Transport,
        overlay: "Overlay",
        gather: dict[str, dict],
    ) -> None:
        if message.kind == KIND_RESULTS_BACK:
            state = gather[self.superpeer_id]
            state["found"].update(message.payload)
            state["pending"] -= 1
            if state["pending"] == 0:
                transport.send(
                    KIND_RESULTS_BACK,
                    self.superpeer_id,
                    state["requester"],
                    tuple(sorted(state["found"])),
                )
            return

        # QUERY_UP: from the origin peer, or flooded over from a sibling.
        from_peer = message.src in overlay.peers
        targets = self.matching_children(message.payload, overlay)
        siblings = (
            [sp for sp in sorted(overlay.superpeers) if sp != self.superpeer_id]
            if from_peer
            else []
        )
        gather[self.superpeer_id] = {
            "requester": message.src,
            "pending": len(targets) + len(siblings),
            "found": set(),
        }
        for child in targets:
            transport.send(KIND_QUERY_FORWARD, self.superpeer_id, child, message.payload)
        for sibling in siblings:
            transport.send(KIND_QUERY_UP, self.superpeer_id, sibling, message.payload)
        if not targets and not siblings:
            transport.send(KIND_RESULTS_BACK, self.superpeer_id, message.src, ())


@dataclass(eq=False)
class Overlay:
    mode: IndexMode
    peers: dict[str, PeerNode]
    superpeers: dict[str, SuperPeer]
    lexicon: RootLexicon


@dataclass(frozen=True)
class P2PSearchOutcome:
    result: SearchResult
    messages: tuple[OverlayMessage, ...]
    peers_contacted: int


def build_overlay(manifest: CorpusManifest, mode: IndexMode) -> Overlay:
    """Build peers, local indexes and super-peer summaries from the manifest.

    Raises:
        OverlayMismatch: the manifest's peer assignment does not match its
            own spec (missing peer or wrong shard size).
    """
    spec = manifest.spec
    lexicon = manifest.lexicon
    shard_size = spec.roots_per_peer * spec.words_per_root
    peers: dict[str, PeerNode] = {}
    superpeers: dict[str, SuperPeer] = {}
    for sp_id, children in manifest.superpeer_children().items():
        summary: dict[str, frozenset[str]] = {}
        for peer_id in children:
            shard = manifest.docs_by_peer.get(peer_id, ())
            if len(shard) != shard_size:
                raise OverlayMismatch(
                    f"{peer_id} holds {len(shard)} documents, spec says {shard_size}"
                )
            peers[peer_id] = PeerNode(
                peer_id, sp_id, shard, build_index(shard, mode, lexicon), lexicon
            )
            if mode is IndexMode.SIMPLE:
                summary[peer_id] = frozenset(doc.word for doc in shard)
            else:
                summary[peer_id] = frozenset(doc.root for doc in shard)
        superpeers[sp_id] = SuperPeer(sp_id, children, summary)
    return Overlay(mode, peers, superpeers, lexicon)


def p2p_search(
    query: Query,
    overlay: Overlay,
    origin: str,
    mode: IndexMode | None = None,
) -> P2PSearchOutcome:
    """Run one query from ``origin`` through the overlay.

    The found set is independent of the origin peer; the message log is
    deterministic for a fixed (overlay, query, origin).

    Raises:
        OverlayMismatch: ``mode`` differs from the overlay's build mode.
        ValueError: ``origin`` is not a peer of the overlay.
    """
    if mode is not None and mode is not overlay.mode:
        raise OverlayMismatch(
            f"overlay built in {overlay.mode.value}, search requested {mode.value}"
        )
    if origin not in overlay.peers:
        raise ValueError(f"unknown origin peer {origin!r}")
    origin_node = overlay.peers[origin]

    if overlay.mode is IndexMode.ADVANCED:
        terms, degraded = expansion_terms(query, overlay.lexicon)
    else:
        terms, degraded = (query.normalized,), False

    found = origin_node.execute(terms)
    transport = Transport()
    transport.send(KIND_QUERY_UP, origin, origin_node.parent, terms)
    gather: dict[str, dict] = {}
    while transport.pending():
        message = transport.pop()
        if message.dst == origin and message.kind == KIND_RESULTS_BACK:
            found.update(message.payload)
        elif message.dst in overlay.peers:
            overlay.peers[message.dst].handle(message, transport)
        else:
            overlay.superpeers[message.dst].handle(message, transport, overlay, gather)

    engine = P2P_ADVANCED if overlay.mode is IndexMode.ADVANCED else P2P_SIMPLE
    result = SearchResult(
        query.query_id,
        engine,
        tuple(sorted(found)),
        terms if overlay.mode is IndexMode.ADVANCED else (),
        degraded=degraded,
    )
    contacted = {m.dst for m in transport.log if m.kind == KIND_QUERY_FORWARD}
    return P2PSearchOutcome(result, tuple(transport.log), len(contacted))


def format_message_log(messages: tuple[OverlayMessage, ...]) -> str:
    """One ``seq TAB kind TAB from TAB to TAB payload_size`` line per message."""
    return "".join(
        f"{m.seq}\t{m.kind}\t{m.src}\t{m.dst}\t{len(m.payload)}\n" for m in messages
    )


def write_message_log(messages: tuple[OverlayMessage, ...], path: str | Path) -> None:
    Path(path).write_text(format_message_log(messages), encoding="utf-8")
