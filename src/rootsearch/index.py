"""Inverted index over single-word documents, in two indexation modes.

SIMPLE indexes each document under exactly one key: the word it contains.
ADVANCED indexes each document under every vocabulary word that shares the
document word's root, so an exact lookup of any root-mate retrieves the
whole root group; all root-mate keys share one posting set. Keys of
``entries`` are normalized words in both modes; lookups never expand
anything themselves.

Both modes also keep ``root_postings``: each root of the indexed documents
mapped to the sorted ids of those documents. It answers a root-aware query
with one lookup per root instead of one per root-mate.
"""
from __future__ import annotations

import pickle
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .corpus import Document
from .errors import UnknownRoot
from .morphology import RootLexicon

_SNAPSHOT_MAGIC = "rootsearch-index"
_SNAPSHOT_VERSION = 2


class IndexMode(Enum):
    SIMPLE = "simple"
    ADVANCED = "advanced"


@dataclass(eq=False)
class InvertedIndex:
    """Keyword -> doc_id postings, plus root -> sorted doc_id postings."""

    mode: IndexMode
    entries: dict[str, set[str]]
    root_postings: dict[str, tuple[str, ...]]
    doc_count: int

    def lookup(self, key: str) -> list[str]:
        """Exact-key postings, sorted by doc_id; absent keys yield []."""
        return sorted(self.entries.get(key, ()))

    def __len__(self) -> int:
        return len(self.entries)


def build_index(
    docs: Iterable[Document], mode: IndexMode, lexicon: RootLexicon
) -> InvertedIndex:
    """Build an index over ``docs`` in the given mode.

    In SIMPLE mode, documents whose word is not in the lexicon are indexed
    by word only and have no root posting.

    Raises:
        UnknownRoot: in ADVANCED mode, a document word is not in the lexicon.
    """
    docs = sorted(docs, key=lambda d: d.doc_id)
    entries: dict[str, set[str]] = {}
    by_root: defaultdict[str, list[str]] = defaultdict(list)
    for doc in docs:
        root = lexicon.root_of(doc.word)
        if mode is IndexMode.SIMPLE:
            entries.setdefault(doc.word, set()).add(doc.doc_id)
        elif root is None:
            raise UnknownRoot(f"document word {doc.word!r} not in lexicon")
        if root is not None:
            by_root[root].append(doc.doc_id)
    # ids arrive sorted; dict.fromkeys drops a repeated id, as a set would
    root_postings = {root: tuple(dict.fromkeys(ids)) for root, ids in by_root.items()}

    if mode is IndexMode.ADVANCED:
        for root in sorted(root_postings):
            # One shared posting set per root: every root-mate key retrieves
            # the same documents, and the index is immutable once built. The
            # lexicon maps each word to one root, so no key is written twice.
            ids = set(root_postings[root])
            for word in lexicon.words_of(root):
                entries[word] = ids
    return InvertedIndex(mode, entries, root_postings, len(docs))


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write a snapshot (convenience only; rebuilding is cheap)."""
    payload = {
        "format": _SNAPSHOT_MAGIC,
        "version": _SNAPSHOT_VERSION,
        "mode": index.mode.value,
        "entries": {key: sorted(ids) for key, ids in sorted(index.entries.items())},
        "root_postings": {
            root: list(ids) for root, ids in sorted(index.root_postings.items())
        },
        "doc_count": index.doc_count,
    }
    Path(path).write_bytes(pickle.dumps(payload, protocol=4))


def load_index(path: str | Path) -> InvertedIndex:
    """Read a snapshot written by ``save_index`` of the same format version.

    Raises:
        ValueError: the file is not a snapshot of this format version.
    """
    payload = pickle.loads(Path(path).read_bytes())
    if payload.get("format") != _SNAPSHOT_MAGIC or payload.get("version") != _SNAPSHOT_VERSION:
        raise ValueError(f"not a rootsearch index snapshot: {path}")
    return InvertedIndex(
        mode=IndexMode(payload["mode"]),
        entries={key: set(ids) for key, ids in payload["entries"].items()},
        root_postings={
            root: tuple(ids) for root, ids in payload["root_postings"].items()
        },
        doc_count=payload["doc_count"],
    )
