"""Simulated super-peer overlay with full message accounting.

The overlay is four tables keyed by node id, as Yang & Garcia-Molina
describe a super-peer network: which super-peer each peer belongs to, and
each super-peer's index of its children's keys. Each peer holds one
postings map from key to the doc ids of its shard: the manifest's own
corpus-wide tuple (``docs_by_word`` or ``docs_by_root``) for a key the peer
holds alone, filtered to the peer's ids only for a key split across peers.
Each super-peer holds one route table, which maps every key its children hold
to the tuple of those children, in peer order. The key is a document's
word in SIMPLE mode, its root in ADVANCED mode. ``p2p_search`` decides a
query's one key once, at the origin: the normalized word in SIMPLE mode,
the root ``search.resolve`` found in ADVANCED mode (``None``, which no node
holds, when the query degrades).

Routing for one query, all on a deterministic FIFO message queue that
``p2p_search`` drains in one loop:

1. the origin peer only sends QUERY_UP to its super-peer with the query's
   term set (the single word in SIMPLE mode; every root-mate term in
   ADVANCED mode); it does not answer first, since its super-peer answers
   for the whole cluster, the origin included
2. a super-peer receiving a QUERY_UP forwards (QUERY_FORWARD) to the
   children its route table lists under the key and, when the sender is a
   peer, passes the query on (QUERY_UP) to its sibling super-peers; siblings
   match their own children but do not re-flood
3. every request is answered by exactly one RESULTS_BACK carrying doc ids
   as a sorted, duplicate-free tuple. A peer replies with the posting tuple
   it stores under the key. A super-peer gathers its children's and
   siblings' answers and replies with their union: a single answer passes
   through, and only two or more non-empty answers are merged and sorted.
   The origin receives exactly one RESULTS_BACK, its super-peer's

In ADVANCED mode the payload still carries every root-mate term, which no
node reads. All terms of one query share its root, which is why the default
block assignment forwards to exactly one peer.

The loop logs plain tuples and types them as ``OverlayMessage``s once, at
the end. A message's number is its place in the log: ``format_message_log``
numbers the lines 1..n.
"""
from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple

from .corpus import CorpusManifest, DocIds, gc_paused
from .index import IndexMode
from .morphology import RootLexicon
from .search import P2P_ADVANCED, P2P_SIMPLE, Query, SearchOutcome, SearchResult, resolve

KIND_QUERY_UP = "QUERY_UP"
KIND_QUERY_FORWARD = "QUERY_FORWARD"
KIND_RESULTS_BACK = "RESULTS_BACK"

# The one map between a P2P engine's name and the key mode of its overlay.
ENGINE_MODES = {P2P_SIMPLE: IndexMode.SIMPLE, P2P_ADVANCED: IndexMode.ADVANCED}


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
    kind: str
    src: str
    dst: str
    payload: tuple[str, ...]


class Overlay:
    """A super-peer network as four tables keyed by node id: ``peers``, peer
    -> its postings; ``parent``, peer -> its super-peer; ``routes``,
    super-peer -> its route table; ``siblings``, super-peer -> every other
    super-peer, in sorted() order, to which a query from a peer is passed on."""

    def __init__(
        self,
        mode: IndexMode,
        peers: dict[str, dict[str, DocIds]],
        parent: dict[str, str],
        routes: dict[str, dict[str, tuple[str, ...]]],
        siblings: dict[str, tuple[str, ...]],
        lexicon: RootLexicon,
    ) -> None:
        self.mode = mode
        self.peers = peers
        self.parent = parent
        self.routes = routes
        self.siblings = siblings
        self.lexicon = lexicon


@gc_paused
def build_overlay(manifest: CorpusManifest, mode: IndexMode) -> Overlay:
    """Build the overlay's tables from the manifest's columns: each
    super-peer's children are one contiguous block of peers, peer-1..peer-k
    under sp-1, the next k under sp-2 and so on.

    Each document is filed under its word (SIMPLE) or its root (ADVANCED),
    with the manifest's corpus-wide tuple of the key. Shards are taken as
    they are: ``corpus.load_manifest`` checks each peer's size.
    """
    spec = manifest.spec
    advanced = mode is IndexMode.ADVANCED
    key_column = manifest.doc_roots if advanced else manifest.doc_words
    by_key = manifest.docs_by_root if advanced else manifest.docs_by_word
    per_sp = spec.peer_count // spec.superpeer_count
    parent = {peer: f"sp-{i // per_sp + 1}" for i, peer in enumerate(spec.peer_ids())}
    peers: dict[str, dict[str, DocIds]] = {peer_id: {} for peer_id in parent}
    for k, peer_id in zip(key_column, manifest.doc_peers):
        peers[peer_id][k] = by_key[k]
    if sum(map(len, peers.values())) > len(by_key):  # a key held by two or more peers
        peer_of = dict(zip(manifest.doc_ids, manifest.doc_peers))
        for peer_id, held in peers.items():
            for k, ids in held.items():
                own = tuple(doc_id for doc_id in ids if peer_of[doc_id] == peer_id)
                held[k] = own if len(own) < len(ids) else ids
    routes: dict[str, dict[str, tuple[str, ...]]] = {}
    for peer_id, sp_id in parent.items():
        peer_postings = peers[peer_id]
        route = routes.get(sp_id, {})
        merged = dict.fromkeys(peer_postings, (peer_id,))
        merged.update(route)
        if len(merged) < len(route) + len(peer_postings):  # keys shared with another child
            for k in peer_postings.keys() & route.keys():
                merged[k] = route[k] + (peer_id,)
        routes[sp_id] = merged
    siblings = {sp: tuple(other for other in sorted(routes) if other != sp) for sp in routes}
    return Overlay(mode, peers, parent, routes, siblings, manifest.lexicon)


def p2p_search(query: Query, overlay: Overlay, origin: str) -> SearchOutcome:
    """Run one query from ``origin`` through the overlay.

    The found set is independent of the origin peer; the message log is
    deterministic for a fixed (overlay, query, origin).

    Raises:
        ValueError: ``origin`` is not a peer of the overlay.
    """
    peers = overlay.peers
    routes = overlay.routes
    parent = overlay.parent.get(origin)
    if parent is None:
        raise ValueError(f"unknown origin peer {origin!r}")

    if overlay.mode is IndexMode.ADVANCED:
        key, terms = resolve(query, overlay.lexicon)
        expanded, degraded = terms, key is None
    else:
        key = query.normalized
        terms, expanded, degraded = (key,), (), False

    # (kind, src, dst, payload) tuples, typed as OverlayMessages at the end
    log = [(KIND_QUERY_UP, origin, parent, terms)]
    send = log.append
    # super-peer id -> (requester, number of answers expected, answers so far)
    gather: dict[str, tuple[str, int, list[DocIds]]] = {}
    # peers are handed only QUERY_FORWARDs, at most one each (one parent, one QUERY_UP)
    contacted = 0
    # the branches append to the log while it is walked, so this drains the queue
    for kind, src, dst, payload in log:
        if kind == KIND_QUERY_FORWARD:
            contacted += 1
            send((KIND_RESULTS_BACK, dst, src, peers[dst].get(key, ())))
        elif kind == KIND_QUERY_UP:
            # from the origin peer, or flooded over from a sibling
            targets = routes[dst].get(key, ())
            siblings = overlay.siblings[dst] if src == origin else ()
            expected = len(targets) + len(siblings)
            if expected:
                gather[dst] = (src, expected, [])
            else:
                send((KIND_RESULTS_BACK, dst, src, ()))
            for child in targets:
                send((KIND_QUERY_FORWARD, dst, child, terms))
            for sibling in siblings:
                send((KIND_QUERY_UP, dst, sibling, terms))
        elif dst != origin:
            # into a super-peer's gather; the origin's one RESULTS_BACK is the last message
            requester, expected, parts = gather[dst]
            parts.append(payload)
            if len(parts) == expected:
                answer = merge(parts) if expected > 1 else payload
                send((KIND_RESULTS_BACK, dst, requester, answer))

    result = tuple.__new__(SearchResult, (log[-1][3], expanded, degraded))
    messages = tuple(map(tuple.__new__, repeat(OverlayMessage), log))
    return tuple.__new__(SearchOutcome, (result, messages, contacted))


def format_message_log(messages: tuple[OverlayMessage, ...]) -> str:
    """One ``number TAB kind TAB from TAB to TAB payload_size`` line per message, from 1."""
    return "".join(
        f"{seq}\t{m.kind}\t{m.src}\t{m.dst}\t{len(m.payload)}\n"
        for seq, m in enumerate(messages, 1)
    )
