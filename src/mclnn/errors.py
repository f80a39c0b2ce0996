"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`MclnnError`, so
callers (the CLI in particular) can map failure classes to exit codes.
"""


class MclnnError(Exception):
    """Base class for all library errors."""


class ValidationError(MclnnError):
    """A spec or configuration value violates a stated bound."""


class ShapeError(MclnnError):
    """Two arrays that must agree in shape do not."""

    @classmethod
    def mismatch(cls, what: str, expected, actual) -> "ShapeError":
        return cls(f"{what}: expected shape {tuple(expected)}, got {tuple(actual)}")


class ContractError(MclnnError):
    """A call violates an operation's pre- or post-condition."""


class InsufficientFramesError(ContractError):
    """A frame block is too short for the layer's temporal window."""

    def __init__(self, order: int, frames: int):
        self.order = order
        self.frames = frames
        super().__init__(
            f"block has {frames} frame(s) but a layer of order {order} "
            f"needs at least {2 * order + 1}"
        )


class InsufficientAudioError(MclnnError):
    """An audio clip is shorter than one analysis window."""


class FileFormatError(MclnnError):
    """A file cannot be decoded: a container, an audio file or a text input."""


class VersionMismatchError(FileFormatError):
    """The file's format version is not one this build can read."""


class TruncatedFileError(FileFormatError):
    """The file ends before its declared payload does."""


class HeaderMismatchError(FileFormatError):
    """Declared shapes or sizes are internally inconsistent."""


class TrainingDivergedError(MclnnError):
    """Training loss became non-finite.

    ``batch`` is the 1-based mini-batch index within the epoch, or None when
    the loss over a whole split (validation) diverged.
    """

    def __init__(self, epoch: int, loss: float, batch: int | None = None):
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        where = f"epoch {epoch}" if batch is None else f"epoch {epoch}, batch {batch}"
        super().__init__(f"training diverged at {where}: loss = {loss!r}")


class ConfigError(ValidationError):
    """An experiment config file is malformed or has unknown keys."""
