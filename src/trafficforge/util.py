"""Shared helpers: seeding, number checks, opening inputs, canonical JSON,
the process pool."""

import hashlib
import json
import sys
from numbers import Real

import numpy as np

from trafficforge.errors import ConfigError


def derive_seed(*parts):
    """Stable 64-bit seed from arbitrary parts.

    Uses a keyed-less BLAKE2b digest of the reprs, so the value is
    independent of process, platform and PYTHONHASHSEED; adding new parts
    elsewhere never perturbs existing streams.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def is_number(value, low=None, high=None, strict=False):
    """Whether ``value`` is a real number (not a bool or a string), finite
    as a float, >= ``low`` (> if ``strict``) and <= ``high``."""
    return (type(value) in (int, float) or isinstance(value, Real)
            and not isinstance(value, bool)) \
        and abs(value) <= sys.float_info.max \
        and (low is None or (value > low if strict else value >= low)) \
        and (high is None or value <= high)


def _rule(kind, low, high, strict):
    bounds = ([] if low is None else [f"{'>' if strict else '>='} {low}"]) \
        + ([] if high is None else [f"<= {high}"])
    return f"{kind} {' and '.join(bounds)}".rstrip()


def number(value, name, low=None, high=None, strict=False):
    """``value`` as a float; a ValueError naming ``name`` unless it is a
    number within the bounds (:func:`is_number`)."""
    if not is_number(value, low, high, strict):
        rule = _rule("a finite number", low, high, strict)
        raise ValueError(f"{name!r} must be {rule}, got {value!r}")
    return float(value)


def numbers(value, name, ndim, low=None, high=None, strict=False):
    """``value``, lists nested ``ndim`` deep (each non-empty and as long
    as the others at its depth) of numbers as :func:`number` takes them,
    as a float array; a ValueError naming ``name`` and any bad number."""
    arr = np.array(value, dtype=object)  # a ragged list leaves lists
    bad = next((k for k, x in enumerate(arr.flat)
                if not is_number(x, low, high, strict)), None) \
        if arr.ndim == ndim and arr.size else -1
    if bad is not None:
        kind = "a non-empty list of " + "equal-length non-empty lists of " \
            * (ndim - 1) + "finite numbers"
        got = "" if bad < 0 else f", got {arr.flat[bad]!r} at " + "".join(
            f"[{i}]" for i in np.unravel_index(bad, arr.shape))
        raise ValueError(f"{name!r} must be "
                         f"{_rule(kind, low, high, strict)}{got}")
    return arr.astype(np.float64)


def integer(value, name, low=None, high=None):
    """``value`` unchanged; a TypeError naming ``name`` unless it is an
    int (a bool, a float or a numeric string is not an integer), and a
    ValueError unless it is >= ``low`` and <= ``high``, each optional."""
    if type(value) is not int:
        raise TypeError(f"{name!r} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None
                                              and value > high):
        rule = _rule("an integer", low, high, False)
        raise ValueError(f"{name!r} must be {rule}, got {value!r}")
    return value


def open_input(path, name):
    """``path`` open for reading as text; a ConfigError naming ``name``
    and ``path`` if it is not found or does not open, e.g. a directory."""
    try:
        return open(path)
    except FileNotFoundError:
        raise ConfigError([f"{name} not found: {path}"]) from None
    except OSError as exc:
        raise ConfigError([f"{name} {path}: {exc.strerror}"]) from None


def read_input(path, name):
    """The text of ``path``, as :func:`open_input` opens it; a ConfigError
    naming ``name`` and ``path`` also if it is not UTF-8."""
    with open_input(path, name) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{name} {path}: {type(exc).__name__}: "
                               f"{exc}"]) from None


def canonical_json(doc):
    """Deterministic JSON serialization (sorted keys, stable floats)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc):
    """Short hex digest of a JSON-serializable document."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


def map_tasks(fn, tasks, jobs):
    """``[fn(t) for t in tasks]``, in order; spread over at most ``jobs``
    worker processes, and no more than there are tasks, when ``jobs`` > 1
    and there is more than one task."""
    if jobs > 1 and len(tasks) > 1:
        # imported here: it loads multiprocessing, which --jobs 1 never uses
        from concurrent.futures import ProcessPoolExecutor
        # a fork start forks every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as ex:
            return list(ex.map(fn, tasks, chunksize=1))
    return [fn(t) for t in tasks]
