"""Exception types shared across the package.

Everything data-related derives from ShoprecError so the CLI can map any
library failure to a single "data error" exit code.
"""


class ShoprecError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ShoprecError):
    """A CSV row could not be parsed; the message names the line number."""


class IntegrityError(ShoprecError):
    """Input violates a dataset invariant (duplicate keys, bad references)."""


class RangeError(ShoprecError):
    """A numeric value or parameter is outside its allowed range."""


class ConfigError(ShoprecError):
    """A configuration object is internally inconsistent."""


class NotFoundError(ShoprecError):
    """A referenced user or item does not exist in the dataset."""


class NoProfileError(ShoprecError):
    """The target user has no usable profile in the requested mode."""


class MetricUndefinedError(ShoprecError):
    """A metric is undefined for this input (e.g. recall with no relevant items)."""


class ExperimentError(ShoprecError):
    """The evaluation protocol cannot run on the given dataset/config."""
