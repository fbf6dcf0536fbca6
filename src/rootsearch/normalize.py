"""Arabic orthographic normalization.

Every word that is stored, indexed or queried goes through ``normalize``
exactly once; all matching elsewhere in the package happens on normalized
forms. The rules, applied in order:

1. strip tatweel (kashida)
2. strip diacritics: harakat, tanwin, shadda, sukun, dagger alef and
   Quranic annotation marks
3. collapse alef variants (hamza above/below, madda, wasla) to bare alef
4. alef maqsura -> ya
5. taa marbuta -> ha

Normalization is idempotent: a normalized word passes through unchanged.
"""
from __future__ import annotations

import re

from .errors import EmptyAfterNormalization

# Deleted: tatweel, and the diacritics U+0610-061A (honorific marks),
# U+064B-065F (harakat, tanwin, shadda, sukun), U+0670 (dagger alef) and
# U+06D6-06ED (Quranic annotation signs).
_DELETED = dict.fromkeys(
    [0x0640, *range(0x0610, 0x061B), *range(0x064B, 0x0660), 0x0670, *range(0x06D6, 0x06EE)]
)
_FOLDS = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ٱ": "ا", "ى": "ي", "ة": "ه"})


def _table(changes: dict[int, str | None]) -> list[int | str | None]:
    """A ``str.translate`` table over U+0000-06FF that keeps every code
    point ``changes`` does not name. A list, not a dict: ``translate``
    raises and clears a KeyError for each letter a dict leaves out, which
    makes a pass over a 4-10 letter word 1.5-2 times slower (CPython 3.11).
    A code point past the list raises IndexError and is kept as well."""
    table: list[int | str | None] = list(range(0x0700))
    for code, value in changes.items():
        table[code] = value
    return table


# Rules 1-5 in one pass: no fold produces a deleted mark, so this equals
# stripping first and folding after.
_NORMALIZE = _table({**_DELETED, **_FOLDS})

# A single word: non-empty, every code point inside the Arabic block.
_ARABIC_WORD = re.compile(r"\A[؀-ۿ]+\Z")


def is_arabic_word(text: str) -> bool:
    """True if ``text`` is one non-empty run of Arabic-block code points."""
    return bool(_ARABIC_WORD.match(text))


def normalize(word: str) -> str:
    """Normalize one Arabic word to its canonical matching form.

    >>> normalize("وَبَصُرَتْ")
    'وبصرت'
    >>> normalize("أكل")
    'اكل'

    Raises:
        ValueError: ``word`` is empty or contains non-Arabic code points.
        EmptyAfterNormalization: ``word`` consisted only of diacritics/tatweel.
    """
    if not is_arabic_word(word):
        raise ValueError(f"not a single Arabic word: {word!r}")
    normalized = word.translate(_NORMALIZE)
    if not normalized:
        raise EmptyAfterNormalization(word)
    return normalized


def is_normalized(word: str) -> bool:
    """True if ``word`` is already in canonical form."""
    return is_arabic_word(word) and word.translate(_NORMALIZE) == word
