"""Exception hierarchy shared by all truthfuse modules."""


class FusionError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(FusionError):
    """A numeric or structural argument is outside its admissible range."""


class InvalidConfig(FusionError):
    """A FusionConfig (or the run setup built from it) is inconsistent."""


class ConflictingClaim(FusionError):
    """One source asserts two different values for the same object."""


class UnknownObject(FusionError):
    """The requested object does not exist in the dataset."""


class MissingAccuracy(FusionError):
    """A voting source has no accuracy entry."""


class DomainOverflow(FusionError):
    """More distinct values were asserted for an object than its domain allows."""


class EmptySource(FusionError):
    """The source provides no values."""


class NoValues(FusionError):
    """Truth selection was asked on a posterior with no asserted values."""


class MissingTruth(FusionError):
    """A commonly asserted object has no selected truth (or round-zero posterior)."""


class MissingInput(FusionError):
    """A per-source score or factor required by a computation is absent."""


class ParseError(FusionError):
    """A claim or golden file is malformed.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyFile(FusionError):
    """The input file contains no data rows."""


class DuplicateObject(FusionError):
    """A golden file lists the same object twice."""


class EmptyGolden(FusionError):
    """Precision was requested against an empty golden standard."""


class InsufficientOverlap(FusionError):
    """A source asserts too few golden objects for a sampled accuracy."""


class InvalidSpec(FusionError):
    """A synthetic world specification is out of range."""
