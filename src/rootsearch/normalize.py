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
One regex probe (``match_word``) decides whether the translate pass runs:
it accepts a single Arabic word and tells apart the words that the rules
leave unchanged, which are returned as they are.
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

# The Arabic-block code points that rules 1-5 leave as they are.
_KEPT = "".join(chr(code) for code in range(0x0600, 0x0700) if _NORMALIZE[code] == code)

# A single word: non-empty, every code point inside the Arabic block. Group 1
# takes part exactly when every code point is kept, i.e. the word is already
# normalized. \Z, unlike $, does not accept a trailing newline.
match_word = re.compile(rf"\A(?:([{re.escape(_KEPT)}]+)|[؀-ۿ]+)\Z").match


def translate_word(word: str) -> str:
    """Apply rules 1-5 to ``word``, which ``match_word`` has accepted.

    Raises:
        EmptyAfterNormalization: ``word`` consisted only of diacritics/tatweel.
    """
    normalized = word.translate(_NORMALIZE)
    if not normalized:
        raise EmptyAfterNormalization(f"nothing left after normalization: {word!r}")
    return normalized


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
    match = match_word(word)
    if match is None:
        raise ValueError(f"not a single Arabic word: {word!r}")
    if match.lastindex:
        return word
    return translate_word(word)


def is_normalized(word: str) -> bool:
    """True if ``word`` is already in canonical form."""
    match = match_word(word)
    return match is not None and match.lastindex == 1
