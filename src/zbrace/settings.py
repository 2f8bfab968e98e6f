"""Settings shared by the command line, reports and the tensor layer.

Integer settings are checked here (``config_int``), as are the report
level, the seed and the sample size, and the shift selection
(``select_shifts``).  The seed drives one stream of pseudorandom values,
zbrace's own splitmix64 (``splitmix64``): it picks a sample of shifts and
the sampled points of an arity-3 check (``seeded_points``).  Nothing here
imports the tensor layer or the report builder, so a command that only
reads braces and builds solutions loads neither.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .braces import SkewBrace, admissible_z
from .solutions import InadmissibleZError

DEFAULT_SAMPLE_POINTS = 100_000
# Arity-3 checks run exhaustively when n^3 is at most this many points.
DEFAULT_BUDGET = 1 << 22
LEVELS = ("maps", "matrices", "all")
# A seed is the 64-bit start state of the splitmix64 stream: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 1 << 64
# Stream values per block of a draw.
DRAW_BLOCK = 1 << 14
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))


def unknown_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    """Raise a one-line ValueError naming every key of ``doc`` outside ``known``."""
    unknown = ", ".join(repr(key) for key in doc if key not in known)
    if unknown:
        raise ValueError(f"unknown {what} {unknown} (known keys: {', '.join(known)})")


def config_int(value: Any, where: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """A config field that must be an integer (a Python or NumPy integer, not a boolean); else a one-line ValueError.

    Floats, even integral ones like 3.0, and numeric strings are rejected,
    as integer entries of brace tables are.  With ``minimum`` or
    ``maximum``, an integer outside them is rejected too.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{where} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{where} must be <= {maximum}, got {value}")
    return int(value)


def seed_setting(value: Any) -> int:
    """A ``seed`` setting: the 64-bit start state of the sample stream, 0 <= seed < 2^64; else a one-line ValueError."""
    return config_int(value, "seed", minimum=0, maximum=SEED_LIMIT - 1)


def level_setting(value: Any) -> str:
    """A ``level`` setting: one of ``LEVELS``; else a one-line ValueError."""
    if value not in LEVELS:
        raise ValueError(f"unknown level {value!r}")
    return value


def sample_points_setting(value: Any) -> int:
    """A ``sample_points`` setting: an integer of at least 1; else a one-line ValueError."""
    if config_int(value, "sample_points") < 1:
        raise ValueError("sample_points must be >= 1")
    return int(value)


def splitmix64(seed: int, start: int, size: int) -> np.ndarray:
    """Values ``start`` to ``start + size - 1`` of the splitmix64 stream of ``seed``, as uint64.

    Value i is mix(seed + (i + 1) * 0x9E3779B97F4A7C15 mod 2^64), where mix
    is z ^= z >> 30, z *= 0xBF58476D1CE4E5B9, z ^= z >> 27,
    z *= 0x94D049BB133111EB, z ^= z >> 31, all modulo 2^64: the output of
    Vigna's reference splitmix64.c started at state ``seed`` (Steele, Lea
    and Flood, OOPSLA 2014).  It works in place on the result and one
    scratch array, and depends on no NumPy generator.
    """
    z = np.arange(start + 1, start + size + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed)
    t = np.empty_like(z)
    for shift, mult in _MIX:
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def seeded_points(total: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` draws below ``total`` from the stream of ``seed``, sorted and distinct, as int64.

    A draw is the top (total - 1).bit_length() bits of a stream value and
    is rejected unless it is below ``total``, so at least half are kept.
    Values are made ``DRAW_BLOCK`` at a time.
    """
    shift = 64 - (total - 1).bit_length()
    p = np.empty(count, dtype=np.int64)
    filled = start = 0
    while filled < count:
        v = splitmix64(seed, start, DRAW_BLOCK)
        start += DRAW_BLOCK
        # NumPy defines a shift by 64 as 0: the only draw below a total of 1
        v >>= np.uint64(shift)
        v = v[v < total][: count - filled]
        p[filled : filled + v.size] = v
        filled += v.size
    # sorted distinct draws (the result of np.unique, without its cost)
    p.sort()
    keep = np.ones(p.size, dtype=bool)
    np.not_equal(p[1:], p[:-1], out=keep[1:])
    return p[keep]


def select_shifts(b: SkewBrace, selection: Any, seed: int) -> list[int]:
    """Resolve a shift selection: "all" (or None), a list of element indices, or {"sample": k}.

    {"sample": k} takes the k admissible shifts whose positions carry the
    smallest values of the splitmix64 stream of ``seed`` (ties by
    position); the object may hold no other key.  Any other form, a count
    or index that is not an integer, or a selection of no shift (an empty
    list, k < 1) raises ValueError.
    """
    if isinstance(selection, dict):
        unknown_keys(selection, ("sample",), "shift selection key")
    admissible = admissible_z(b).tolist()
    if selection == "all" or selection is None:
        return [int(z) for z in admissible]
    if isinstance(selection, dict) and "sample" in selection:
        k = config_int(selection["sample"], "z.sample", minimum=1)
        if k >= len(admissible):
            return [int(z) for z in admissible]
        keys = splitmix64(seed, 0, len(admissible))
        return sorted(admissible[i] for i in np.argsort(keys, kind="stable")[:k])
    if not isinstance(selection, (list, tuple)):
        raise ValueError(f'shift selection must be "all", a list or {{"sample": k}}, got {selection!r}')
    zs = [config_int(z, f"z[{i}]") for i, z in enumerate(selection)]
    if not zs:
        raise ValueError("shift selection is empty")
    allowed = set(admissible)
    bad = [z for z in zs if z not in allowed]
    if bad:
        raise InadmissibleZError(f"requested shifts not admissible: {bad}")
    return sorted(set(zs))
