"""Root morphology: derivation templates, the word/root lexicon, light stemming.

A root is a string of 3 or 4 normalized Arabic consonants (e.g. لعب).
Surface words are produced by applying derivation templates, strings with
one ``C1``/``C2``/... slot per root consonant plus fixed prefix, infix and
suffix letters, e.g. template ``يC1C2C3ون`` applied to لعب yields يلعبون.

Root resolution is lexicon-first: the corpus manifest records every
generated word's root, so corpus vocabulary always resolves exactly.
Out-of-vocabulary words fall back to light stemming (clitic stripping),
which is heuristic by design.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ArityMismatch, UnknownRoot
from .normalize import is_normalized

_SLOT = re.compile(r"C([1-9])")

# Clitic layers removed by the light stemmer: pronominal/number suffixes,
# the definite-article combinations, and the single-letter conjunctions and
# prepositions و ف ب ك ل.
_ARTICLE_PREFIXES = ("بال", "كال", "لل", "ال")
_STEM_SUFFIXES = (
    "تها",
    "ناه",
    "ها",
    "هم",
    "هن",
    "كم",
    "كن",
    "نا",
    "تم",
    "ون",
    "ين",
    "ان",
    "ات",
    "وا",
    "ه",
    "ت",
)


@dataclass(frozen=True)
class DerivationPattern:
    """One derivation template with a stable identifier."""

    pattern_id: str
    template: str

    @property
    def arity(self) -> int:
        """Number of root consonant slots in the template."""
        slots = {int(m) for m in _SLOT.findall(self.template)}
        return max(slots)

    def apply(self, root: str) -> str:
        """Fill the consonant slots with ``root``'s letters."""
        out = self.template
        for i, letter in enumerate(root, start=1):
            out = out.replace(f"C{i}", letter)
        return out


@dataclass(frozen=True)
class PatternInventory:
    """The versioned, ordered template set used for corpus generation."""

    version: str
    patterns: tuple[DerivationPattern, ...]

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[DerivationPattern]:
        return iter(self.patterns)

    def find_template(self, template: str) -> DerivationPattern:
        for pattern in self.patterns:
            if pattern.template == template:
                return pattern
        raise KeyError(template)


def _validate_pattern(pattern: DerivationPattern) -> None:
    slots = sorted({int(m) for m in _SLOT.findall(pattern.template)})
    if not slots:
        raise ValueError(f"pattern {pattern.pattern_id}: no consonant slots")
    if slots != list(range(1, slots[-1] + 1)):
        raise ValueError(f"pattern {pattern.pattern_id}: slot numbering has gaps")


def load_patterns(path: str | Path | None = None) -> PatternInventory:
    """Load the template inventory from ``path`` or the packaged data file.

    File format: a ``# rootsearch-patterns <version>`` header line, then one
    ``id TAB template`` record per line, UTF-8.
    """
    if path is None:
        text = (
            resources.files("rootsearch").joinpath("data/patterns.tsv").read_text("utf-8")
        )
    else:
        text = Path(path).read_text("utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# rootsearch-patterns "):
        raise ValueError("malformed pattern file: missing version header")
    version = lines[0].split()[-1]
    patterns = []
    for line in lines[1:]:
        if not line.strip():
            continue
        pattern_id, template = line.split("\t")
        patterns.append(DerivationPattern(pattern_id, template))
    ids = [p.pattern_id for p in patterns]
    templates = [p.template for p in patterns]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate pattern ids in pattern file")
    if len(set(templates)) != len(templates):
        raise ValueError("duplicate templates in pattern file")
    for pattern in patterns:
        _validate_pattern(pattern)
    return PatternInventory(version, tuple(patterns))


def derive(root: str, pattern: DerivationPattern) -> str:
    """Apply ``pattern`` to ``root``, yielding a normalized surface word.

    Deterministic: the same (root, pattern) pair always yields the same word.

    Raises:
        ValueError: ``root`` is not a 3- or 4-letter normalized form.
        ArityMismatch: slot count differs from the root's length.
    """
    if len(root) not in (3, 4) or not is_normalized(root):
        raise ValueError(f"not a normalized 3/4-letter root: {root!r}")
    if pattern.arity != len(root):
        raise ArityMismatch(
            f"pattern {pattern.pattern_id} has {pattern.arity} slots, "
            f"root {root!r} has {len(root)} letters"
        )
    return pattern.apply(root)


class RootLexicon:
    """Bidirectional word/root maps over a corpus vocabulary.

    Written once while the corpus is generated, read-only afterwards; the
    two internal maps are kept mutually consistent by construction. Each
    root's sorted word tuple is computed on first use and dropped whenever
    ``add`` changes that root.
    """

    def __init__(self) -> None:
        self._root_of: dict[str, str] = {}
        self._words_of: dict[str, set[str]] = {}
        self._sorted_words: dict[str, tuple[str, ...]] = {}

    def add(self, word: str, root: str) -> None:
        existing = self._root_of.get(word)
        if existing is not None and existing != root:
            raise ValueError(f"word {word!r} already mapped to root {existing!r}")
        self._root_of[word] = root
        self._words_of.setdefault(root, set()).add(word)
        self._sorted_words.pop(root, None)

    def root_of(self, word: str) -> str | None:
        return self._root_of.get(word)

    def roots_of(self, words: Iterable[str]) -> set[str | None]:
        """The distinct roots of ``words``, in one pass; None for unknown words."""
        return set(map(self._root_of.get, words))

    def words_of(self, root: str) -> tuple[str, ...]:
        """Every vocabulary word with this root, sorted; () for unknown roots."""
        words = self._sorted_words.get(root)
        if words is None:
            words = tuple(sorted(self._words_of.get(root, ())))
            if root in self._words_of:
                self._sorted_words[root] = words
        return words

    def has_root(self, root: str) -> bool:
        return root in self._words_of

    def roots(self) -> frozenset[str]:
        return frozenset(self._words_of)

    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._root_of)

    def __contains__(self, word: str) -> bool:
        return word in self._root_of

    def __len__(self) -> int:
        return len(self._root_of)


def light_stem(word: str) -> str:
    """Strip clitic suffixes and prefixes from a normalized word.

    Suffixes peel iteratively, then one conjunction (و/ف), one article
    layer, and one bare preposition; every step keeps at least three
    letters, and bare prepositions only peel off words long enough that
    the letter is unlikely to be a root consonant. The residue is a root
    candidate, not a guaranteed root.
    """
    stem = word
    changed = True
    while changed:
        changed = False
        for suffix in _STEM_SUFFIXES:
            if stem.endswith(suffix) and len(stem) - len(suffix) >= 3:
                stem = stem[: -len(suffix)]
                changed = True
                break
    if stem[:1] in ("و", "ف") and len(stem) - 1 >= 3:
        stem = stem[1:]
    for prefix in _ARTICLE_PREFIXES:
        if stem.startswith(prefix) and len(stem) - len(prefix) >= 3:
            stem = stem[len(prefix) :]
            break
    else:
        if stem[:1] in ("ب", "ك", "ل") and len(stem) - 1 >= 4:
            stem = stem[1:]
    return stem


def extract_root(word: str, lexicon: RootLexicon) -> str:
    """Resolve a normalized word to its root.

    Corpus vocabulary resolves exactly through the lexicon. Anything else
    is light-stemmed; the residue counts if it is a known root, a known
    word, or simply 3-4 letters long.

    Raises:
        UnknownRoot: not in the lexicon and no plausible stemming residue.
    """
    root = lexicon.root_of(word)
    if root is not None:
        return root
    stem = light_stem(word)
    if lexicon.has_root(stem):
        return stem
    via_word = lexicon.root_of(stem)
    if via_word is not None:
        return via_word
    if 3 <= len(stem) <= 4:
        return stem
    raise UnknownRoot(word)


def same_root(a: str, b: str, lexicon: RootLexicon) -> bool:
    """True iff both normalized words resolve to the same root."""
    return extract_root(a, lexicon) == extract_root(b, lexicon)
