"""Exception hierarchy shared by all piwb modules."""


class PiwbError(Exception):
    """Base class for all errors raised by this package.

    `exit_code` is what the command-line front end exits with: 2 for
    usage, syntax and resource errors, 3 for inconclusive outcomes.
    """

    exit_code = 2


class MalformedSum(PiwbError):
    """A summation has a child that is not itself a summation (0, prefix, or +)."""

    def __init__(self, message, subterm=None):
        super().__init__(message)
        self.subterm = subterm


class ParseError(PiwbError):
    """Concrete-syntax error, carrying the offending span and expected tokens."""

    def __init__(self, message, span, expected=()):
        super().__init__(message)
        self.span = span
        self.expected = tuple(expected)


class NotFinite(PiwbError):
    """Operation requires a replication-free process."""


class CyclicLts(PiwbError):
    """Depth is undefined: the transition graph contains a cycle."""


class Inconclusive(PiwbError):
    """A truncated exploration has no deadlocked state, so norm is unknown."""

    exit_code = 3


class TooLarge(PiwbError):
    """Instance exceeds a bound: the naive oracle's configured pairs, the
    ids a behaviour index can pack, or the terms a sweep may enumerate."""


class NormalizationIncomplete(PiwbError):
    """Stutter-free normalization could not verify its output.

    Carries the verification report and, when present, the residual
    stuttering witness (a pair of weakly bisimilar states joined by tau).
    """

    exit_code = 3

    def __init__(self, message, report=None, witness=None):
        super().__init__(message)
        self.report = report
        self.witness = witness


class Aborted(PiwbError):
    """An exhaustive search exceeded its budget; `progress` pairs were checked."""

    exit_code = 3

    def __init__(self, message, progress=0):
        super().__init__(message)
        self.progress = progress


class UnknownDemo(PiwbError):
    """No demo registered under the requested name."""
