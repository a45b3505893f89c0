"""Exception types shared across the package.

Every error raised by proverloop's own logic is a ProverloopError: callers
catch the whole family with one handler, and the CLI maps it to exit code 2.

The one rule: one type per way a caller reacts. A call whose own arguments
do not fit raises ProverloopError itself; bad content of a document, record,
config, fixture or CSV is a CorruptDocument, and a failed read or write is
an IoFailure. Each of the other three is caught by a caller. A message says
what is wrong; the boundary that knows where (a corpus line, a database
record, a fixture file) re-raises it with that place in front. Wrappers
around OS or JSON failures keep the original exception chained via
``raise ... from``.
"""

from __future__ import annotations


class ProverloopError(Exception):
    """Base class for all package errors."""


class CorruptDocument(ProverloopError):
    """The content of a document, record, config, fixture or CSV is bad."""


class IoFailure(ProverloopError):
    """The operating system failed to read or write a file."""


class AlreadyProven(ProverloopError):
    """A proof was recorded for a theorem that already has one."""


class EnvironmentFailure(ProverloopError):
    """Raised by a proof environment when a tactic application crashes.

    Search treats the offending edge as invalid and counts the failure.
    """


class PipelineError(ProverloopError):
    """Wraps a module error with the pipeline stage it surfaced in."""
