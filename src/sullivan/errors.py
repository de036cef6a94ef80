"""The root of the engine's error family.

Every error that bad input can raise (``AlgebraError``, ``ParseError``,
``PresentationError``, ``FileFormatError`` and the rest) derives from
``SullivanError``, so the command line catches them in one clause and exits
2.  ``CliffordError`` stays a ``RuntimeError``: it signals a broken internal
invariant, not bad input.
"""


class SullivanError(ValueError):
    pass
