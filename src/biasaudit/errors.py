"""Exception hierarchy shared across the toolkit, and its message for text that is not UTF-8.

The CLI maps these onto process exit codes: usage and configuration
problems exit 1, data problems exit 2, and degenerate groups under
``--strict`` exit 3.
"""

from __future__ import annotations


def not_utf8(exc: UnicodeDecodeError) -> str:
    """What every reader says of a file that is not UTF-8: its first bad byte, and what to do."""
    byte = exc.object[exc.start]
    return f"not UTF-8 text: cannot decode byte {byte:#04x}; save the file as UTF-8"


class AuditError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AuditError):
    """Invalid configuration value, flag, or requested attribute."""


class UnknownAttributeError(ConfigError):
    """A requested grouping attribute does not exist in the metadata."""

    def __init__(self, name: str):
        super().__init__(f"attribute {name!r} does not exist in the metadata")
        self.name = name


class DataError(AuditError):
    """Malformed or unusable input data."""


class MissingHeaderError(DataError):
    """A CSV file lacks the required header row or columns."""


class EmptyFileError(DataError):
    """An input file contains no rows at all."""


class DuplicateSpeakerError(DataError):
    """The same speaker_id appears twice in one metadata set."""

    def __init__(self, speaker_id: str):
        super().__init__(f"duplicate speaker_id {speaker_id!r}")
        self.speaker_id = speaker_id


class BadLabelError(DataError):
    """A trial row carries a label outside {target, nontarget}."""

    def __init__(self, row: int, value: str):
        super().__init__(f"row {row}: bad trial label {value!r}")
        self.row = row
        self.value = value


class NonFiniteScoreError(DataError):
    """A trial row carries a score that is not a finite real."""

    def __init__(self, row: int, value: str):
        super().__init__(f"row {row}: score {value!r} is not a finite number")
        self.row = row
        self.value = value


class EmptyPopulationError(DataError):
    """A sweep was requested over an empty target or nontarget population."""

    def __init__(self, which: str):
        super().__init__(f"cannot compute a sweep: no {which} scores")
        self.which = which


class DegenerateGroupError(AuditError):
    """A group lacks the trials needed for the requested metric."""

    def __init__(self, group):
        super().__init__(f"group {group!s} has no target or no nontarget trials")
        self.group = group


class GroupSetMismatchError(AuditError):
    """Two metric vectors that must share a group set do not."""


class ZeroAggregateError(AuditError):
    """The aggregate metric is zero, so ratio measures are undefined."""


class ZeroGroupValueError(AuditError):
    """A group metric is zero under zero-policy 'error'."""

    def __init__(self, group):
        super().__init__(
            f"group {group!s} has a zero metric value; ratio measures are "
            "undefined (zero-policy 'error')"
        )
        self.group = group
