"""Root morphology: derivation templates, the word/root lexicon, light stemming.

A root is a string of 3 or 4 normalized Arabic consonants (e.g. لعب).
Surface words are produced by applying derivation templates, strings with
one ``C1``/``C2``/... slot per root consonant plus fixed prefix, infix and
suffix letters, e.g. template ``يC1C2C3ون`` applied to لعب yields يلعبون.
``derive`` is the one template fill, behind its root and arity checks;
``is_root`` is the one rule for what a root is, which ``corpus`` also
applies to every root a manifest records; ``bad_template`` is the one rule
for what a template is, which ``corpus.load_patterns`` applies to every row
of the pattern file. This module reads no files.

Root resolution is lexicon-first: the corpus manifest records every
generated word's root, and the lexicon is built once from those (word,
root) rows, so corpus vocabulary always resolves exactly.
Out-of-vocabulary words fall back to light stemming (clitic stripping),
which is heuristic by design.
"""
from __future__ import annotations

import re
from collections import defaultdict
from typing import NamedTuple

from .errors import UnknownRoot
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


def _by_letter(affixes: tuple[str, ...], at: int) -> dict[str, tuple[tuple[str, int], ...]]:
    """``(affix, length)`` pairs keyed by each affix's letter at ``at`` (0
    for the first, -1 for the last), in ``affixes`` order."""
    table: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for affix in affixes:
        table[affix[at]].append((affix, len(affix)))
    return {letter: tuple(pairs) for letter, pairs in table.items()}


# Only an affix that starts (ends) with the stem's first (last) letter can
# match, so light_stem tries just that letter's entries, in the order above.
_ARTICLES_BY_FIRST = _by_letter(_ARTICLE_PREFIXES, 0)
_SUFFIXES_BY_LAST = _by_letter(_STEM_SUFFIXES, -1)


class DerivationPattern(NamedTuple):
    """One derivation template with a stable identifier."""

    pattern_id: str
    template: str

    @property
    def arity(self) -> int:
        """Number of root consonant slots in the template."""
        slots = {int(m) for m in _SLOT.findall(self.template)}
        return max(slots)


class PatternInventory:
    """The versioned, ordered template set used for corpus generation."""

    def __init__(self, version: str, patterns: tuple[DerivationPattern, ...]) -> None:
        self.version = version
        self.patterns = patterns

    def __len__(self) -> int:
        return len(self.patterns)


def bad_template(template: str) -> str | None:
    """Why ``template`` cannot derive words: it has no ``C<n>`` slot, or its
    slots are not numbered 1..n; None if it can."""
    slots = sorted({int(m) for m in _SLOT.findall(template)})
    if not slots:
        return f"template {template!r} has no consonant slots"
    if slots != list(range(1, slots[-1] + 1)):
        return f"template {template!r} numbers its slots with gaps"
    return None


def is_root(root: str) -> bool:
    """True if ``root`` is a normalized Arabic word of 3 or 4 letters: the
    roots ``derive`` accepts and a manifest may record."""
    return len(root) in (3, 4) and is_normalized(root)


def derive(root: str, pattern: DerivationPattern) -> str:
    """Apply ``pattern`` to ``root``, yielding a normalized surface word.

    Deterministic: the same (root, pattern) pair always yields the same word.

    Raises:
        ValueError: ``root`` is not a 3- or 4-letter normalized form, or the
            template's slot count differs from the root's length.
    """
    if not is_root(root):
        raise ValueError(f"not a normalized 3/4-letter root: {root!r}")
    if pattern.arity != len(root):
        raise ValueError(
            f"pattern {pattern.pattern_id} has {pattern.arity} slots, "
            f"root {root!r} has {len(root)} letters"
        )
    word = pattern.template
    for slot, letter in enumerate(root, start=1):
        word = word.replace(f"C{slot}", letter)
    return word


class RootLexicon:
    """Bidirectional word/root maps over a corpus vocabulary, built once from
    ``words_of``, each root -> its words as one sorted, duplicate-free tuple:
    ``corpus.postings(roots, words)``. Root-mates resolve to one root object.

    Raises:
        ValueError: a word is filed under two different roots.
    """

    def __init__(self, words_of: dict[str, tuple[str, ...]] | None = None) -> None:
        self._words_of = words_of or {}
        self._root_of = {w: r for r, ws in self._words_of.items() for w in ws}
        if len(self._root_of) != sum(map(len, self._words_of.values())):
            word, root = next(
                (w, r) for r, ws in self._words_of.items() for w in ws if self._root_of[w] != r
            )
            raise ValueError(f"word {word!r} has two roots: {root!r} and {self._root_of[word]!r}")

    def root_of(self, word: str) -> str | None:
        return self._root_of.get(word)

    def words_of(self, root: str) -> tuple[str, ...]:
        """Every vocabulary word with this root, sorted; () for unknown roots."""
        return self._words_of.get(root, ())

    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._root_of)

    def __contains__(self, word: str) -> bool:
        return word in self._root_of

    def __len__(self) -> int:
        return len(self._root_of)


def light_stem(word: str) -> str:
    """Strip clitic suffixes and prefixes from a normalized word.

    Suffixes peel iteratively, then one conjunction (و/ف), then either one
    article layer or, when no article peels, one bare preposition (ب/ك/ل);
    every step keeps at least three letters, and a bare preposition only
    peels off a word long enough that the letter is unlikely to be a root
    consonant. Each suffix step tries only the suffixes that end in the
    stem's last letter, and the article step only the articles that start
    with its first letter, both in ``_STEM_SUFFIXES``/``_ARTICLE_PREFIXES``
    order, so the first affix that fits is the one a full scan would find.
    The residue is a root candidate, not a guaranteed root.

    >>> light_stem("والكتاب")
    'كتاب'
    >>> light_stem("للعلمات")
    'علم'
    """
    stem = word
    while len(stem) > 3:
        for suffix, size in _SUFFIXES_BY_LAST.get(stem[-1], ()):
            if len(stem) - size >= 3 and stem.endswith(suffix):
                stem = stem[:-size]
                break
        else:
            break
    if stem[:1] in ("و", "ف") and len(stem) > 3:
        stem = stem[1:]
    for prefix, size in _ARTICLES_BY_FIRST.get(stem[:1], ()):
        if len(stem) - size >= 3 and stem.startswith(prefix):
            return stem[size:]
    if stem[:1] in ("ب", "ك", "ل") and len(stem) > 4:
        stem = stem[1:]
    return stem


def extract_root(word: str, lexicon: RootLexicon) -> str:
    """Resolve a normalized word to its root.

    Corpus vocabulary resolves exactly through the lexicon. Anything else
    is light-stemmed; the residue counts if it is a known root, a known
    word, or simply 3-4 letters long; a residue with a digit or a
    punctuation mark in it, such as ١٢٣ or ،،،, is no root.

    Raises:
        UnknownRoot: not in the lexicon and no plausible stemming residue.
    """
    root = lexicon.root_of(word)
    if root is not None:
        return root
    stem = light_stem(word)
    if lexicon.words_of(stem):
        return stem
    via_word = lexicon.root_of(stem)
    if via_word is not None:
        return via_word
    if 3 <= len(stem) <= 4 and stem.isalpha():
        return stem
    raise UnknownRoot(word)
