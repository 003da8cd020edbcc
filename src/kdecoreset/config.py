"""Run configuration: defaults, config-file keys, and environment overrides.

Precedence, lowest to highest: built-in defaults, config file (--config,
JSON object), environment variables (KDECORESET_<KEY>), command-line flags.
Every output artifact embeds the fully resolved configuration so a run can
be reproduced from the artifact alone.
"""

import json
import os
from dataclasses import asdict, dataclass, fields

from .colorizer import DEFAULT_RETRY_BUDGET
from .evaluation import DEFAULT_EVAL_BUDGET
from .schedule import DEFAULT_GRID_BUDGET, default_constants

__all__ = ["RunConfig", "resolve_config", "ENV_PREFIX"]

ENV_PREFIX = "KDECORESET_"

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


@dataclass
class RunConfig:
    """Resolved parameters for one CLI invocation."""

    input: str = None
    output: str = None
    dim: int = None
    target_size: int = None
    epsilon: float = None
    seed: int = 0
    c0: float = None
    c1: float = None
    c_big: float = None
    strict_constants: bool = False
    grid_budget: int = DEFAULT_GRID_BUDGET
    resolution: int = None
    eval_budget: int = DEFAULT_EVAL_BUDGET
    retry_budget: int = DEFAULT_RETRY_BUDGET
    presample: bool = False
    emit_colorings: bool = True
    coreset: str = None
    sizes: tuple = None
    num_seeds: int = 20

    def constants_for(self, d):
        """Schedule constants for dimension d under this configuration."""
        return default_constants(
            d, c0=self.c0, c1=self.c1, c_big=self.c_big,
            strict=self.strict_constants, grid_budget=self.grid_budget,
        )

    def to_dict(self):
        d = asdict(self)
        if d["sizes"] is not None:
            d["sizes"] = list(d["sizes"])
        return d


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    s = str(value).strip().lower()
    if s in _BOOL_TRUE:
        return True
    if s in _BOOL_FALSE:
        return False
    raise ValueError(f"cannot parse boolean config value {value!r}")


def _parse_int(value):
    """An int, an integral float or a decimal string as an int; bools,
    fractions and non-finite floats raise ValueError."""
    if (isinstance(value, (int, str)) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"cannot parse integer config value {value!r}")


def _parse_float(value):
    """A non-bool int, a float or a numeric string as a float; anything
    else raises ValueError."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"cannot parse float config value {value!r}")


def _parse_path(value):
    """A string, as it is; anything else raises ValueError."""
    if isinstance(value, str):
        return value
    raise ValueError(f"cannot parse path config value {value!r}")


def _parse_sizes(value):
    """A comma-separated string or a list of sizes as a tuple of ints."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v]
    if not isinstance(value, list):
        raise ValueError(f"cannot parse sizes config value {value!r}")
    return tuple(_parse_int(v) for v in value)


# Parsers follow the field annotations, which must stay plain types.
_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: _parse_path,
            tuple: _parse_sizes}
_COERCERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def resolve_config(cli_values, config_path=None, environ=None):
    """Merge defaults, config file, environment, and CLI values.

    cli_values: mapping of field name -> value or None (None = not given).
    A config-file value of null is likewise not given, so the `config` of a
    build artifact works as a config file.
    """
    environ = os.environ if environ is None else environ
    cfg = RunConfig()
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in data.items():
            if key not in _COERCERS:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                setattr(cfg, key, _COERCERS[key](value))
    for name, coerce in _COERCERS.items():
        env_val = environ.get(ENV_PREFIX + name.upper())
        if env_val is not None:
            setattr(cfg, name, coerce(env_val))
    for name, value in cli_values.items():
        if value is not None and name in _COERCERS:
            setattr(cfg, name, _COERCERS[name](value))
    return cfg
