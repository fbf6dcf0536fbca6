"""The two exception types the package raises by name; both are
``ValueError``s, so ``cli.main`` maps every bad input to exit 1 through one
``except ValueError``. Any other bad input (an empty or non-Arabic word, a
template whose slot count is not the root's length, a document word that
is not in the lexicon) raises a plain ``ValueError``."""


class CorpusSpecError(ValueError):
    """A corpus file, spec, template set or peer layout breaks its rules;
    for a file, the message names it, and the line if any."""


class UnknownRoot(ValueError):
    """A word is not in the lexicon and light stemming found no plausible root."""
