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
        self.reason = reason


class DuplicatePath(ProverloopError):
    def __init__(self, path: str) -> None:
        super().__init__(f"duplicate file path {path!r}")
        self.path = path


class UnknownImport(ProverloopError):
    def __init__(self, path: str, target: str) -> None:
        super().__init__(f"{path!r} imports unknown file {target!r}")
        self.path = path
        self.target = target


class ImportCycle(ProverloopError):
    def __init__(self, paths: list[str]) -> None:
        super().__init__(f"import cycle among {paths!r}")
        self.paths = paths


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
    def __init__(self, repo_id: str) -> None:
        super().__init__(f"unknown repository {repo_id!r}")
        self.repo_id = repo_id


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
    def __init__(self, path: str) -> None:
        super().__init__(f"file not in corpus: {path!r}")
        self.path = path


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

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause
