"""Exception types shared across the package, and the one way a loader opens its input.

Every loader reads its file through `reading` (or `read_json`), so a file
that cannot be opened or read, or that is not UTF-8 text, raises the
loader's own error type naming the file, and a bad byte is named by its
offset from the start of the file.
"""

import json
from contextlib import contextmanager


class EmofuseError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(EmofuseError):
    """Tensor or matrix shapes are incompatible for the requested operation."""


class CorpusError(EmofuseError):
    """A corpus file is missing, unreadable, or entirely malformed."""


class InventoryError(EmofuseError):
    """The emoji sense inventory is missing, malformed, or inconsistent."""


class ConfigError(EmofuseError):
    """A run configuration is missing, malformed, or internally inconsistent."""


class CheckpointError(EmofuseError):
    """A tensor container is not one, is truncated, or is otherwise malformed."""


class TrainingError(EmofuseError):
    """Training cannot proceed (degenerate inputs, invalid labels, ...)."""


@contextmanager
def reading(path, error, what, binary=False):
    """Open `path` for reading, as UTF-8 text unless `binary`; `what` names the file in errors.

    An OSError raises `error("cannot read <what> <path>: ...")`; a UnicodeDecodeError raises
    `error("<what> <path> is not UTF-8 text: byte <offset>: ...")`. A text-mode read reports
    offsets within its buffer, so the file is decoded again whole to find the first bad byte.
    """
    try:
        with open(path, "rb") if binary else open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as err:
        raise error(f"cannot read {what} {path}: {err}") from err
    except UnicodeDecodeError as err:
        try:
            with open(path, "rb") as fh:
                fh.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            err = whole
        except OSError:
            pass
        raise error(f"{what} {path} is not UTF-8 text: byte {err.start}: {err.reason}") from None


def read_json(path, error, what):
    """The JSON value in `path`, read through `reading`; invalid or too deeply nested JSON raises `error`."""
    with reading(path, error, what) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise error(f"{what} {path} is not valid JSON: {err}") from err
        except RecursionError:
            raise error(f"{what} {path} is not valid JSON: nested too deeply") from None
