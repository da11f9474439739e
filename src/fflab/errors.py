"""Exception hierarchy shared by every module."""


class FFLabError(Exception):
    """Base class for all package errors."""


class DimensionError(FFLabError):
    """Array shapes are incompatible for the requested operation."""


class UsageError(FFLabError):
    """The caller violated an API precondition (empty data, label out of range, ...)."""


class FormatError(FFLabError):
    """A binary or text container is malformed.

    ``offset`` is the byte offset at which parsing failed, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(FFLabError):
    """Bad experiment configuration (unknown key, type mismatch, missing key)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataError(FFLabError):
    """Dataset files are missing or unreadable."""


class DivergenceError(FFLabError):
    """Training diverged: the weights of a layer, of the head or of the
    SGNS embedding tables left the finite range.

    ``layer`` and ``epoch`` locate the divergence, when known; the
    training loop fills in ``epoch`` as the error passes through it.
    """

    def __init__(self, message, layer=None, epoch=None):
        super().__init__(message)
        self.layer = layer
        self.epoch = epoch

    def __str__(self):
        where = ", ".join(
            f"{name} {value}"
            for name, value in (("epoch", self.epoch), ("layer", self.layer))
            if value is not None
        )
        return f"{where}: {self.args[0]}" if where else self.args[0]
