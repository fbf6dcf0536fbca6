"""Seeded benchmark inputs: a synthetic root pool and noisy query variants.

Everything here is drawn from a ``random.Random`` the caller seeds, so one
seed always yields the same inputs. Nothing here imports rootsearch: the
program only ever sees the generated strings.
"""
from __future__ import annotations

import random

# The normalized consonants: the 28-letter alphabet without the weak
# letters ا و ي. Hamza carriers (أ إ آ ؤ ئ ء) are not normalized forms, so
# they are absent as well.
CONSONANTS = "بتثجحخدذرزسشصضطظعغفقكلمنه"

# Harakat, tanwin, shadda and sukun: the marks normalization strips.
DIACRITICS = "ًٌٍَُِّْ"
TATWEEL = "ـ"
ALEF_VARIANTS = "أإآ"
CLITIC_PREFIXES = ("و", "ف", "ال", "وال", "بال", "لل")
CLITIC_SUFFIXES = ("ها", "هم", "كم", "نا", "ه", "ات", "ون")


def synthetic_root_pool(count: int, seed: int) -> tuple[str, ...]:
    """``count`` distinct triliteral roots drawn from ``CONSONANTS``, sorted.

    A triple of one repeated letter is redrawn: two of the packaged
    templates derive the same surface from it, which the generator rejects
    as a ``PatternCollision``. Any other generator error surfaces as is.
    """
    if count > len(CONSONANTS) ** 3 - len(CONSONANTS):
        raise ValueError(f"cannot draw {count} distinct roots")
    rng = random.Random(seed)
    pool: set[str] = set()
    while len(pool) < count:
        root = "".join(rng.choice(CONSONANTS) for _ in range(3))
        if len(set(root)) > 1:
            pool.add(root)
    return tuple(sorted(pool))


def noisy_variant(word: str, rng: random.Random) -> str:
    """A raw query for ``word`` as a user might type it.

    Always wraps the word in a clitic prefix, suffix or both, then, each
    with even odds: alef variants for bare alef, a final ى/ة for final
    ي/ه, one tatweel inside the word, and diacritics after letters.
    """
    shape = rng.randrange(3)
    prefix = rng.choice(CLITIC_PREFIXES) if shape != 1 else ""
    suffix = rng.choice(CLITIC_SUFFIXES) if shape != 0 else ""
    text = prefix + word + suffix
    if rng.random() < 0.5:
        text = "".join(
            rng.choice(ALEF_VARIANTS) if ch == "ا" and rng.random() < 0.5 else ch
            for ch in text
        )
    if rng.random() < 0.5 and text[-1] in "يه":
        text = text[:-1] + ("ى" if text[-1] == "ي" else "ة")
    if rng.random() < 0.5:
        cut = rng.randrange(1, len(text))
        text = text[:cut] + TATWEEL + text[cut:]
    if rng.random() < 0.5:
        text = "".join(
            ch + rng.choice(DIACRITICS)
            if ch != TATWEEL and rng.random() < 0.3
            else ch
            for ch in text
        )
    return text
