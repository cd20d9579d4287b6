"""Run configuration: flat key=value files, strict parsing, stable hash."""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError


@dataclass
class RunConfig:
    """All knobs of a reproducible run."""

    precision: int = 30          # mpmath working digits
    ode_tol: float = 1e-12       # relative tolerance of the ODE integrator

    def validate(self):
        if self.ode_tol <= 0:
            raise ConfigError("ode_tol must be positive")
        if self.precision < 15:
            raise ConfigError("precision must be at least 15 digits")
        return self

    def config_hash(self):
        """Stable short hash of the full configuration."""
        canon = ";".join("%s=%r" % (k, v)
                         for k, v in sorted(asdict(self).items()))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def parse_config(text):
    """Parse a flat key=value document into a RunConfig.

    Blank lines and #-comments are ignored; unknown keys and malformed
    lines are errors.
    """
    casts = {f.name: type(f.default) for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r"
                              % (lineno, raw))
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in casts:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        try:
            values[key] = casts[key](val)
        except ValueError as exc:
            raise ConfigError("line %d: bad value for %r: %s"
                              % (lineno, key, exc)) from exc
    return RunConfig(**values).validate()


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
