"""Exception types shared across the package."""


class RootSearchError(Exception):
    """Base class for all rootsearch errors."""


class EmptyAfterNormalization(RootSearchError):
    """The input consisted only of diacritics/tatweel; nothing indexable left."""


class UnknownRoot(RootSearchError):
    """A word is not in the lexicon and light stemming found no plausible root."""


class ArityMismatch(RootSearchError):
    """Root length does not match the template's consonant slot count."""


class InsufficientRoots(RootSearchError):
    """The built-in root inventory is smaller than the requested root count."""


class PatternCollision(RootSearchError):
    """The template set produced duplicate surface forms for a single root."""


class CorpusSpecError(RootSearchError):
    """A corpus specification violates one of its invariants, or a TSV file
    rootsearch wrote fails its checks on load."""


class OverlayMismatch(RootSearchError):
    """Overlay topology does not match the manifest's spec."""
