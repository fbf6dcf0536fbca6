"""Inverted index over single-word documents, in two indexation modes.

SIMPLE indexes each document under exactly one key: the word it contains.
ADVANCED indexes each document under every vocabulary word that shares the
document word's root, so an exact lookup of any root-mate retrieves the
whole root group; all root-mate keys share one posting tuple. Keys of
``entries`` are normalized words in both modes; lookups never expand
anything themselves.

Both modes also keep ``root_postings``: each document filed under the
root its manifest row records, mapped to the sorted ids of those
documents. It answers a root-aware query with one lookup per root instead
of one per root-mate.

``corpus.postings`` builds every key -> sorted doc-id tuple map: this
index's, and the manifest's ``docs_by_word`` and ``docs_by_root``, of which
``evaluation.build_engines`` makes the one SIMPLE index the centralized
engines search, and whose tuples each overlay peer (see ``p2p``) stores.
"""
from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable

from .corpus import DocIds, Document, gc_paused, postings
from .morphology import RootLexicon


class IndexMode(Enum):
    SIMPLE = "simple"
    ADVANCED = "advanced"


class InvertedIndex:
    """Keyword -> sorted doc_ids, plus root -> sorted doc_ids."""

    def __init__(self, entries: dict[str, DocIds], root_postings: dict[str, DocIds]) -> None:
        self.entries = entries
        self.root_postings = root_postings

    def lookup(self, key: str) -> DocIds:
        """The stored, sorted postings of an exact key; absent keys yield ()."""
        return self.entries.get(key, ())


@gc_paused
def build_index(
    docs: Iterable[Document], mode: IndexMode, lexicon: RootLexicon
) -> InvertedIndex:
    """Build an index over ``docs`` in the given mode.

    Both modes file every document's id under its manifest root in
    ``root_postings``; only ADVANCED mode reads the lexicon.

    Raises:
        ValueError: in ADVANCED mode, a document word is not in the lexicon.
    """
    docs = tuple(docs)
    doc_ids = [doc.doc_id for doc in docs]
    root_postings = postings(map(attrgetter("root"), docs), doc_ids)
    if mode is IndexMode.SIMPLE:
        return InvertedIndex(postings(map(attrgetter("word"), docs), doc_ids), root_postings)

    for doc in docs:
        if doc.word not in lexicon:
            raise ValueError(f"document word {doc.word!r} not in lexicon")
    # every root-mate key shares its root's posting tuple; the lexicon maps
    # each word to one root, so no key is written twice
    entries = {
        word: ids for root, ids in root_postings.items() for word in lexicon.words_of(root)
    }
    return InvertedIndex(entries, root_postings)
