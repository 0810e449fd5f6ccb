"""Exception types shared across the toolkit.

Every error carries a stable ``code`` string (its class name) so the CLI can
emit machine-readable diagnostics without string matching on messages.
"""

from __future__ import annotations


class BestArmError(Exception):
    """Base class for all toolkit errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DuplicateBestArm(BestArmError):
    """The maximal mean is attained by more than one arm."""


class IndexOutOfRange(BestArmError):
    """An arm index lies outside the valid range."""


class InvalidK(BestArmError):
    """An arm count or instance is unusable: K is not an int in [2, MAX_K],
    the reward family is unknown, or a bound function got bad inputs."""


class BudgetTooSmall(BestArmError):
    """The budget T is below the algorithm's minimum."""


class SeparabilityViolated(BestArmError):
    """Group-mean hypothesis intervals overlap (mu_H* <= mu_L*)."""


class DegenerateInterval(BestArmError):
    """Prior engineering is undefined when delta_max == delta_min."""


class SupportViolation(BestArmError):
    """Generated or supplied means fall outside the reward family support."""


class CsvFormatError(BestArmError):
    """An ingested CSV file does not match the expected layout."""


class ConfigParse(BestArmError):
    """A config file is missing, unreadable, or malformed."""


class IoFailure(BestArmError):
    """Reading or writing an artifact file failed."""
