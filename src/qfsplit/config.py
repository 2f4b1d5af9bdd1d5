"""Runtime configuration for the ``witt`` command.

A config file is optional plain ``key=value`` lines ('#' starts a comment);
its path comes from ``qfsplit witt --config`` or the QFSPLIT_CONFIG
environment variable.  The only key is ``witt_length_cap``, the longest
``(a0; a1; ...)`` operand that ``witt add``/``witt mul`` accept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_VAR = "QFSPLIT_CONFIG"

_KEYS = ("witt_length_cap",)


@dataclass
class Config:
    witt_length_cap: int = 8

    def merged(self, **overrides) -> "Config":
        values = {k: getattr(self, k) for k in _KEYS}
        for k, v in overrides.items():
            if v is not None:
                values[k] = v
        return Config(**values)


class ConfigError(ValueError):
    pass


def load_config(path: str) -> Config:
    values: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = int(value.strip())
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} needs an integer") from None
    return Config().merged(**values)


def resolve_config(cli_path: str | None = None) -> Config:
    path = cli_path or os.environ.get(ENV_VAR)
    if not path:
        return Config()
    return load_config(path)
