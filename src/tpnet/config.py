"""Run configuration: JSON schema, parsing, validation, serialization.

Schema (JSON object; unknown keys rejected):

    technology_panel  path to the technology panel CSV        (required)
    product_panel     path to the product panel CSV           (required)
    delta             aggregation window length in years      (default 5)
    samples           null-ensemble size N, below 2**31       (default 10000)
    seed              master random seed, >= 0                (default 0)
    tier              significance tier: 90|95|99|99.9        (default "95")
    digits            product code prefix length to aggregate (default null)
    output_dir        where artifacts are written             (default "out")
    lags              list of {"delta_t": int, "pairs": [[t1, t2], ...]}
                      (default: one entry, delta_t 0, pairs derived from the
                      product panel: its two most recent non-overlapping
                      delta-year windows)

When a lag entry omits "pairs", the pairs are derived the same way: product
window end-years first, technology end-year = t2 - delta_t. Every explicit
pair must satisfy t2 - t1 = delta_t, and no pair may repeat within a lag.

``RunConfig`` and ``LagSpec`` hold the only type checks, so a config built in
Python is checked exactly as one parsed from JSON. Paths are strings. Integer
fields take what ``operator.index`` takes (Python or numpy integers) except
booleans, and are stored as Python ints; floats (even 5.0), strings and null
are rejected, never rounded or read as a path. ``tier`` may be a string or a
number (95 reads as "95"). ``digits`` may be null.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .validate import MAX_SAMPLES, TIER_LEVELS


def _int(name: str, value) -> int:
    """``value`` as a Python int, or a ConfigError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class LagSpec:
    """One time lag and its (technology end-year, product end-year) pairs.

    Empty ``pairs`` means "derive from the product panel at run time".
    """

    delta_t: int
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "delta_t", _int("delta_t", self.delta_t))
        if self.delta_t < 0:
            raise ConfigError(f"delta_t must be >= 0, got {self.delta_t}")
        pairs = []
        for pair in self.pairs:
            try:
                t1, t2 = pair
            except (TypeError, ValueError):
                raise ConfigError(f"pair must be two years [t1, t2], got {pair!r}")
            t1, t2 = _int("t1", t1), _int("t2", t2)
            if t2 - t1 != self.delta_t:
                raise ConfigError(
                    f"pair ({t1}, {t2}) does not match lag {self.delta_t}"
                )
            if (t1, t2) in pairs:
                raise ConfigError(f"pair ({t1}, {t2}) repeats in lag {self.delta_t}")
            pairs.append((t1, t2))
        object.__setattr__(self, "pairs", tuple(pairs))


@dataclass(frozen=True)
class RunConfig:
    technology_panel: str
    product_panel: str
    delta: int = 5
    samples: int = 10_000
    seed: int = 0
    tier: str = "95"
    digits: Optional[int] = None
    output_dir: str = "out"
    lags: tuple[LagSpec, ...] = (LagSpec(0),)

    def __post_init__(self):
        for name in ("technology_panel", "product_panel", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        optional = ("digits",) if self.digits is not None else ()
        for name in ("delta", "samples", "seed", *optional):
            object.__setattr__(self, name, _int(name, getattr(self, name)))
        if self.delta < 1:
            raise ConfigError(f"delta must be >= 1, got {self.delta}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise ConfigError(
                f"samples must be < 2**31, the int32 null counts' bound, got {self.samples}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if str(self.tier) not in TIER_LEVELS:
            raise ConfigError(
                f"tier must be one of {sorted(TIER_LEVELS)}, got {self.tier!r}"
            )
        object.__setattr__(self, "tier", str(self.tier))
        if self.digits is not None and self.digits < 1:
            raise ConfigError(f"digits must be >= 1, got {self.digits}")
        if not isinstance(self.lags, (list, tuple)) or not all(
            isinstance(lag, LagSpec) for lag in self.lags
        ):
            raise ConfigError(f"lags must be a list or tuple of LagSpec, got {self.lags!r}")
        object.__setattr__(self, "lags", tuple(self.lags))
        if not self.lags:
            raise ConfigError("at least one lag must be configured")
        seen = set()
        for lag in self.lags:
            if lag.delta_t in seen:
                raise ConfigError(f"duplicate lag {lag.delta_t}")
            seen.add(lag.delta_t)

    def replace(self, **overrides) -> "RunConfig":
        return dataclasses.replace(self, **overrides)


def _parse_lags(raw, where: str) -> tuple[LagSpec, ...]:
    """Check the lags' JSON structure; ``LagSpec`` checks the years."""
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: lags must be a list")
    lags = []
    for entry in raw:
        if not isinstance(entry, dict) or "delta_t" not in entry:
            raise ConfigError(f"{where}: each lag needs a delta_t")
        unknown = set(entry) - {"delta_t", "pairs"}
        if unknown:
            raise ConfigError(f"{where}: unknown lag keys {sorted(unknown)}")
        pairs = entry.get("pairs", [])
        if not isinstance(pairs, list) or not all(isinstance(p, list) for p in pairs):
            raise ConfigError(f"{where}: pairs must be [t1, t2] integer lists")
        lags.append(LagSpec(entry["delta_t"], pairs))
    return tuple(lags)


def config_from_dict(data: dict, where: str = "config") -> RunConfig:
    unknown = set(data) - {field.name for field in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key in ("technology_panel", "product_panel"):
        if key not in data:
            raise ConfigError(f"{where}: missing required key {key!r}")
    if "lags" in data:
        data = {**data, "lags": _parse_lags(data["lags"], where)}
    return RunConfig(**data)


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(data, where=str(path))


def config_to_dict(cfg: RunConfig) -> dict:
    data = dataclasses.asdict(cfg)
    # lists, not tuples: a Run compares this with a snapshot read back from JSON
    data["lags"] = [
        {"delta_t": lag.delta_t, "pairs": [list(p) for p in lag.pairs]}
        for lag in cfg.lags
    ]
    return data


def serialize_config(cfg: RunConfig, path: str | Path) -> None:
    from .exports import write_json  # at module level it would reorder the package's imports

    write_json(config_to_dict(cfg), path)
