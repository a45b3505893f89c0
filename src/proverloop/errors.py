"""Exception types shared across the package.

Every error raised by proverloop's own logic derives from ProverloopError so
callers can catch the whole family with one handler. Wrappers around OS or
JSON failures keep the original exception chained via ``raise ... from``.
"""

from __future__ import annotations


class ProverloopError(Exception):
    """Base class for all package errors."""


# -- corpus ----------------------------------------------------------------

class MalformedLine(ProverloopError):
    def __init__(self, line_no: int, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class DuplicatePath(ProverloopError):
    pass


class UnknownImport(ProverloopError):
    pass


class ImportCycle(ProverloopError):
    pass


class TooFewTheorems(ProverloopError):
    pass


# -- curriculum ------------------------------------------------------------

class EmptyInput(ProverloopError):
    pass


# -- database --------------------------------------------------------------

class InvalidRecord(ProverloopError):
    pass


class NotFound(ProverloopError):
    pass


class AlreadyProven(ProverloopError):
    pass


class UnknownRepo(ProverloopError):
    pass


class IoFailure(ProverloopError):
    pass


class CorruptDocument(ProverloopError):
    pass


# -- retriever -------------------------------------------------------------

class ShapeMismatch(ProverloopError):
    pass


class EmptyDataset(ProverloopError):
    pass


class StaleIndex(ProverloopError):
    pass


class EmptyGroundTruth(ProverloopError):
    pass


# -- search ----------------------------------------------------------------

class UnknownFile(ProverloopError):
    pass


class EnvironmentFailure(ProverloopError):
    """Raised by a proof environment when a tactic application crashes.

    Search treats the offending edge as invalid and counts the failure.
    """


# -- metrics ---------------------------------------------------------------

class TooFewTasks(ProverloopError):
    pass


class DegenerateCurve(ProverloopError):
    pass


class InvalidMatrix(ProverloopError, ValueError):
    pass


# -- orchestrator ----------------------------------------------------------

class PipelineError(ProverloopError):
    """Wraps a module error with the pipeline stage it surfaced in."""
