"""Finite-horizon planning under partial observability via annotated logic
programs: parse action theories, compile them to (normal) logic programs and
CNF, enumerate answer sets, and extract optimal policies — all cross-checked
against a brute-force probabilistic oracle."""

__version__ = "0.1.0"


class ApoError(Exception):
    """Base of every error the package raises on purpose.  It lives here, not
    in a stage module, so that a module can subclass it without importing
    another stage."""
