"""Exception types shared across the package, and its one rule for each check: ``check_fields``
for a value object's fields, ``utf8_text`` and ``json_object`` for the bytes of a file, and
``in_file`` and ``read_file`` for naming the file an error is in."""

import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path


class WxhierError(Exception):
    """Base class for all package errors."""


class ParseError(WxhierError):
    """Malformed input document (PPM header, manifest CSV, config file, ...)."""


class ValidationError(WxhierError):
    """Structurally parseable input that violates a content contract."""


class UnknownLabelError(ValidationError):
    """A label string that is not one of the known leaf classes."""


class DimensionError(WxhierError):
    """Non-positive or otherwise impossible target dimensions."""


class DegenerateError(WxhierError):
    """Statistically degenerate input, e.g. zero variance."""


class EmptyManifestError(WxhierError):
    """A dataset operation received no entries."""


class ShapeError(WxhierError):
    """Tensor or layer shapes are inconsistent."""


class ConfigError(WxhierError):
    """Invalid training or run configuration value."""


class MissingClassError(WxhierError):
    """A class required for training has no samples."""


class FormatError(WxhierError):
    """Corrupt or truncated binary container."""


class VersionError(FormatError):
    """Container version tag is not supported."""


class LabelRangeError(WxhierError):
    """An integer label lies outside the declared class count."""


class EmptyMatrixError(WxhierError):
    """Metrics requested on a confusion matrix with no samples."""


_TAKES = {"int": "an int", "float": "a finite number", "str": "a str",
          "tuple[int, ...]": "a tuple of ints"}


def check_fields(obj, error: type[WxhierError]) -> None:
    """Raise ``error`` for the first field of dataclass ``obj`` that its annotation
    string refuses: ``int`` takes a Python int, ``float`` an int or float finite as
    a float, ``str`` a str, ``tuple[int, ...]`` a tuple of Python ints, and none a
    bool or a numpy scalar.  Each value object calls it, then checks its ranges."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float":
            ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        elif f.type == "tuple[int, ...]":
            ok = type(value) is tuple and all(type(v) is int for v in value)
        else:  # an int or str field takes that exact type; other fields anything
            ok = type(value) is {"int": int, "str": str}.get(f.type, type(value))
        if not ok:
            raise error(f"{f.name} must be {_TAKES[f.type]}, got {value!r}")


def utf8_text(data: bytes, what: str, error: type[WxhierError]) -> str:
    """``data`` as UTF-8 text; other bytes, a leading byte-order mark too, raise ``error``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: {exc}") from None
    if text.startswith("\ufeff"):
        raise error(f"{what} starts with a byte-order mark; UTF-8 text takes none")
    return text


def json_object(data: bytes, what: str, error: type[WxhierError]) -> dict:
    """The JSON object in ``utf8_text(data)``; bad syntax, too deep or no object raise ``error``."""
    try:
        doc = json.loads(utf8_text(data, what, error))
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


@contextmanager
def in_file(path: Path):
    """Re-raise a package error from the block as its own type, prefixed with ``path``."""
    try:
        yield
    except WxhierError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_file(path: Path, parse):
    """``parse(path.read_bytes())``, whose package errors name ``path``."""
    with in_file(path):
        return parse(path.read_bytes())
