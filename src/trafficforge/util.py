"""Shared helpers: seeding, number checks, canonical JSON, the process pool."""

import hashlib
import json
import math


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


def finite_positive(value, name):
    """``value`` as a float; a ValueError naming ``name`` unless it is a
    finite number > 0 (a bool or a numeric string is not a number)."""
    if type(value) not in (int, float) \
            or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name!r} must be a finite number > 0, got "
                         f"{value!r}")
    return float(value)


def integer(value, name):
    """``value`` unchanged; a TypeError naming ``name`` unless it is an
    int (a bool, a float or a numeric string is not an integer)."""
    if type(value) is not int:
        raise TypeError(f"{name!r} must be an integer, got {value!r}")
    return value


def canonical_json(doc):
    """Deterministic JSON serialization (sorted keys, stable floats)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc):
    """Short hex digest of a JSON-serializable document."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


def map_tasks(fn, tasks, jobs):
    """``[fn(t) for t in tasks]``, in order; spread over ``jobs`` worker
    processes when ``jobs`` > 1 and there is more than one task."""
    if jobs > 1 and len(tasks) > 1:
        # imported here: it loads multiprocessing, which --jobs 1 never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, tasks, chunksize=1))
    return [fn(t) for t in tasks]
