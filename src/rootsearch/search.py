"""Centralized search engines: exact surface match and root expansion.

``resolve`` is the one place a query's root is worked out, here and in
``p2p``: the root and its root-mates in the corpus vocabulary, or no root
and the query word alone. ``search_exact`` is the baseline: one exact
lookup of the normalized word. ``search_expanded`` answers with one lookup
of the resolved root in the same index's root postings, reporting the
root-mates as expanded terms; with no root it degrades to exact search.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import UnknownRoot
from .index import InvertedIndex
from .morphology import RootLexicon, extract_root
from .normalize import match_word, normalize, translate_word

if TYPE_CHECKING:
    from .p2p import OverlayMessage

BASELINE = "baseline"
EXPANDED = "expanded"
P2P_SIMPLE = "p2p-simple"
P2P_ADVANCED = "p2p-advanced"
ENGINES = (BASELINE, EXPANDED, P2P_SIMPLE, P2P_ADVANCED)


class Query(NamedTuple):
    query_id: str
    raw: str
    normalized: str

    @classmethod
    def parse(cls, query_id: str, raw: str) -> "Query":
        """Parse and normalize a single-word query.

        One probe of ``raw`` decides: an Arabic word that is already
        normalized is kept as it is, any other Arabic word is translated,
        and only text the probe rejects is split into tokens and normalized.

        Raises:
            ValueError: empty input, multiple words, or non-Arabic text.
            EmptyAfterNormalization: the word consisted only of diacritics/tatweel.
        """
        match = match_word(raw)
        if match is None:
            tokens = raw.split()
            if len(tokens) != 1:
                raise ValueError(f"queries are single words, got {raw!r}")
            word = normalize(tokens[0])
        elif match.lastindex:
            word = raw
        else:
            word = translate_word(raw)
        # tuple.__new__ builds the NamedTuple without its Python-level __new__ frame
        return tuple.__new__(cls, (query_id, raw, word))


class SearchResult(NamedTuple):
    found: tuple[str, ...]
    expanded_terms: tuple[str, ...] = ()
    degraded: bool = False


class SearchOutcome(NamedTuple):
    """What every engine call returns; a centralized engine sends no messages."""

    result: SearchResult
    messages: tuple[OverlayMessage, ...] = ()
    peers_contacted: int | None = None


def search_exact(query: Query, index: InvertedIndex) -> SearchResult:
    """Exact lookup of the query word; no expansion."""
    return tuple.__new__(SearchResult, (index.lookup(query.normalized), (), False))


def resolve(query: Query, lexicon: RootLexicon) -> tuple[str | None, tuple[str, ...]]:
    """The query's root and its sorted expansion terms, which are empty when
    no corpus word has that root; ``(None, (word,))`` when no root resolves
    and the query degrades to its normalized word."""
    try:
        root = extract_root(query.normalized, lexicon)
    except UnknownRoot:
        return None, (query.normalized,)
    return root, lexicon.words_of(root)


def search_expanded(
    query: Query, index: InvertedIndex, lexicon: RootLexicon
) -> SearchResult:
    """Every indexed document whose word shares the query's root.

    One root-postings lookup; a query with no resolvable root degrades to
    an exact lookup of the query word.
    """
    root, terms = resolve(query, lexicon)
    if root is None:
        return tuple.__new__(SearchResult, (index.lookup(query.normalized), terms, True))
    return tuple.__new__(SearchResult, (index.root_postings.get(root, ()), terms, False))
