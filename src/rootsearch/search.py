"""Centralized search engines: exact surface match and root expansion.

``search_exact`` is the baseline: one exact lookup of the normalized query
word. ``search_expanded`` resolves the word to its root and answers from
the same index's root postings with one lookup: exactly the documents
whose word is a root-mate of the query in the corpus vocabulary, reported
together with those root-mates as the expanded terms. A query whose root
cannot be resolved degrades to exact search instead of failing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownRoot
from .index import InvertedIndex
from .morphology import RootLexicon, extract_root
from .normalize import normalize

BASELINE = "baseline"
EXPANDED = "expanded"
P2P_SIMPLE = "p2p-simple"
P2P_ADVANCED = "p2p-advanced"
ENGINES = (BASELINE, EXPANDED, P2P_SIMPLE, P2P_ADVANCED)


@dataclass(frozen=True)
class Query:
    query_id: str
    raw: str
    normalized: str

    @classmethod
    def parse(cls, query_id: str, raw: str) -> "Query":
        """Parse and normalize a single-word query.

        Raises:
            ValueError: empty input, multiple words, or non-Arabic text.
        """
        tokens = raw.split()
        if len(tokens) != 1:
            raise ValueError(f"queries are single words, got {raw!r}")
        return cls(query_id, raw, normalize(tokens[0]))


@dataclass(frozen=True)
class SearchResult:
    query_id: str
    engine: str
    found: tuple[str, ...]
    expanded_terms: tuple[str, ...] = ()
    degraded: bool = field(default=False, kw_only=True)


def search_exact(query: Query, index: InvertedIndex) -> SearchResult:
    """Exact lookup of the query word; no expansion."""
    return SearchResult(query.query_id, BASELINE, tuple(index.lookup(query.normalized)))


def expansion_terms(query: Query, lexicon: RootLexicon) -> tuple[tuple[str, ...], bool]:
    """Sorted expansion terms plus a degraded flag (True when no root resolves)."""
    try:
        root = extract_root(query.normalized, lexicon)
    except UnknownRoot:
        return (query.normalized,), True
    return lexicon.words_of(root), False


def expand_query(query: Query, lexicon: RootLexicon) -> list[str]:
    """All corpus-vocabulary words sharing the query's root, sorted.

    Falls back to ``[query.normalized]`` when no root resolves, so the
    caller degrades to exact search.
    """
    return list(expansion_terms(query, lexicon)[0])


def search_expanded(
    query: Query, index: InvertedIndex, lexicon: RootLexicon
) -> SearchResult:
    """Every indexed document whose word shares the query's root.

    One root-postings lookup; a query with no resolvable root degrades to
    an exact lookup of the query word.
    """
    try:
        root = extract_root(query.normalized, lexicon)
    except UnknownRoot:
        return SearchResult(
            query.query_id,
            EXPANDED,
            tuple(index.lookup(query.normalized)),
            (query.normalized,),
            degraded=True,
        )
    return SearchResult(
        query.query_id,
        EXPANDED,
        index.root_postings.get(root, ()),
        lexicon.words_of(root),
    )
