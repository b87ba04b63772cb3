"""Structured run configuration: one INI-style document checked against SCHEMA.

SCHEMA declares every section and key a config may hold, per ``[system]
kind``: section -> key -> Key(type reader, default text, guard).  Loading a
document rejects an unknown section or key and a value that does not read as
its key's type.  A document's first layer holds command-line flags, each
setting one key: the typed accessors return a key's flag, else its value from
the first section in FALLBACK order that sets it, else its default, checked
by the guard of the section read; an error names the flag or the section that
set the value.  The raw bytes are kept so run manifests can record a content
hash of the config.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .core import SetDescriptor


class ConfigError(ValueError):
    """A malformed or incomplete run configuration (CLI exit code 1)."""


def _number(kind, text: str):
    """kind(text) for ASCII text without '_', where Python alone would also read
    other scripts' digits and digit separators."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return kind(text)


def _float(text: str) -> float:
    try:
        value = _number(float, text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return _number(int, text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


#: most paths one ensemble may hold: 2000 times the largest ensemble a shipped
#: config or the benchmark runs (500 paths); its per-path lists are built before
#: any path runs, so a count far above this would exhaust memory first
MAX_PATHS = 10**6


def _paths(text: str) -> int:
    """A path count: an integer no larger than MAX_PATHS (its key guards the least)."""
    value = _int(text)
    if value > MAX_PATHS:
        raise ValueError(f"must be <= {MAX_PATHS}, got {value!r}")
    return value


def _floats(text: str) -> list:
    try:
        values = [_number(float, tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"expected numbers: {text.strip()!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected finite numbers: {text.strip()!r}")
    return values


def _groups(text: str) -> list:
    """';'-separated groups of numbers (one vector or axis each); empty groups are skipped."""
    return [_floats(chunk) for chunk in text.split(";") if chunk.strip()]


def _exprs(text: str) -> list:
    return [part.strip() for part in text.split(";") if part.strip()]


def _set(text: str) -> SetDescriptor:
    """The union of '|'-joined parts 'box lo hi ...' (lo hi per dim) and 'point v ...'."""
    parts = []
    for chunk in filter(str.split, text.split("|")):
        shape, *numbers = chunk.split()
        vals = _floats(" ".join(numbers))
        lo, hi = (vals[0::2], vals[1::2]) if shape == "box" else (vals, vals)
        if shape not in ("box", "point"):
            raise ValueError(f"unknown set shape {shape!r} (use box/point)")
        if len(lo) != len(hi) or not all(a <= b for a, b in zip(lo, hi)):
            raise ValueError(f"box needs lo <= hi per dim, got {chunk.strip()!r}")
        parts.append(SetDescriptor.box(lo, hi))
    if not parts:
        raise ValueError("empty set description")
    return SetDescriptor.union_of(parts)


#: default of a key that must be set
REQUIRED = object()


class Key(NamedTuple):
    """A key's reader, the text read when it is unset (None: read as None) and
    its guard: (predicate on the value, what the value must be)."""

    read: Callable
    default: object = None
    guard: Optional[tuple] = None


def _at_least(bound):
    return (lambda v: v >= bound, f"must be >= {bound}")


_COUNT = _at_least(1)
_POSITIVE = (lambda v: v > 0.0, "must be > 0")

#: the keys of one simulated ensemble; [recur] and [sweep] fall back for them
_SIMULATION = {
    "n_paths": Key(_paths, "100", _COUNT),
    "t_max": Key(_float, "10.0", _at_least(0)),
    "j_max": Key(_int, "10000", _COUNT),
    "base_step": Key(_float, "0.01", _POSITIVE),
    "substep_per_epsilon": Key(_float, "0.1", _POSITIVE),
    "x0": Key(_groups, "1", (bool, "needs at least one initial condition")),
    "r0": Key(_floats, "0"),
    "tau0": Key(_float, "0", _at_least(0)),
}
_SEED = Key(_int, "0", _at_least(0))
#: [recur] and [sweep] estimate recurrence, which needs at least 30 paths
_RECURRENCE = {**_SIMULATION, "n_paths": Key(_paths, "100", _at_least(30)), "seed": _SEED,
               "rho": Key(_float, "0.05", (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")),
               "R": Key(_float, "5.0", _POSITIVE)}

_COMMANDS = {
    "simulate": {**_SIMULATION, "seed": _SEED},
    "average": {
        "x_values": Key(_groups, "-3 -2 -1 1 2 3", (
            lambda axes: any(v != 0.0 for axis in axes for v in axis),
            "the x grid needs a nonzero point (gamma is normalized by |x|)")),
        "r_points": Key(_int, "3", _COUNT),
        "tau_period": Key(_float, "6.283185307179586", _POSITIVE),  # 2 pi
        "tau_points": Key(_int, "256", _COUNT),
        "T_values": Key(_floats),
        "T_min": Key(_float, "0.5"),
        "T_max": Key(_float, "12.566370614359172"),  # 4 pi
        "T_points": Key(_int, "20", _COUNT),
        "T_long_periods": Key(_float, "20", _at_least(1)),
        "favg": Key(_exprs),
    },
    "certify": {
        "V": Key(_exprs, REQUIRED),
        "radius_min": Key(_float, "0.001", _POSITIVE),
        "radius_max": Key(_float, "10.0", _POSITIVE),
        "radial_points": Key(_int, "25", _COUNT),
        "r_points": Key(_int, "5", _COUNT),
        "safety_margin": Key(_float, "0.0", _at_least(0)),
    },
    "recur": {**_RECURRENCE, "radius": Key(_float, "0.1", _POSITIVE)},
    "sweep": {**_RECURRENCE, "radius_max": Key(_float, "2.0", _POSITIVE),
              "eps_values": Key(_floats, REQUIRED, (
                  lambda v: v and v[-1] > 0.0 and all(a > b for a, b in zip(v, v[1:])),
                  "must be > 0 and strictly decreasing"))},
}

#: sections a simulation key is read from, in order, after its own
FALLBACK = {"recur": ("simulate",), "sweep": ("recur", "simulate")}

_JAMMED = {
    "kind": Key(str.strip, REQUIRED),
    "period": Key(_float, "1.0", _POSITIVE),
    "jam_prob": Key(_float, "0.1", (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
    "epsilon": Key(_float, "0.01", _POSITIVE),
}
_SYSTEMS = {
    "jammed-actuator": _JAMMED,
    "jammed-es": {**_JAMMED, "delta": Key(_float, "0.1", _POSITIVE)},
    "custom": {
        "kind": Key(str.strip, REQUIRED),
        **{name: Key(_int, REQUIRED, _COUNT) for name in ("state_dim", "aux_dim", "noise_dim")},
        "epsilon": Key(_float, REQUIRED, _POSITIVE),
        **{name: Key(_exprs, REQUIRED) for name in ("flow_x", "flow_r", "jump_x", "jump_r")},
        "flow_set": Key(_set, REQUIRED),
        "jump_set": Key(_set, REQUIRED),
    },
}
_NOISE = {
    "kind": Key(str.strip, "finite",
                (lambda v: v == "finite", "must be finite (samplers are registered in code)")),
    "values": Key(_groups, REQUIRED),
    "probs": Key(_floats, REQUIRED),
}

#: [system] kind -> section -> key -> Key; only custom systems read [noise]
SCHEMA = {kind: {"system": keys, **({"noise": _NOISE} if kind == "custom" else {}),
                 **_COMMANDS}
          for kind, keys in _SYSTEMS.items()}


def _suggest(name: str, known, form: str = "{}") -> str:
    import difflib

    close = difflib.get_close_matches(name, list(known), n=1)
    return f" (did you mean {form.format(close[0])}?)" if close else ""


def _parse(where: str, read: Callable, text: str, guard=None):
    """read(text), checked by guard; a ValueError is a ConfigError naming where
    the text was set: '[section] key' or a flag."""
    try:
        value = read(text)
        if guard is not None and not guard[0](value):
            raise ValueError(f"{guard[1]}, got {value!r}")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return value


def _check(sections: dict) -> None:
    """Raise ConfigError for a missing or unknown kind, section or key, or a value
    that does not read as its key's type."""
    kind = sections.get("system", {}).get("kind")
    if kind is None:
        raise ConfigError("[system] section needs a 'kind'")
    if kind not in SCHEMA:
        raise ConfigError(f"[system] kind: unknown system kind {kind!r}{_suggest(kind, SCHEMA)}")
    table = SCHEMA[kind]
    for name, keys in sections.items():
        if name == "noise" and name not in table:
            raise ConfigError(f"[noise]: unknown section for kind = {kind} "
                              f"(only kind = custom reads [noise])")
        if name not in table:
            raise ConfigError(f"[{name}]: unknown section{_suggest(name, table, '[{}]')}")
        for key, text in keys.items():
            if key not in table[name]:
                raise ConfigError(f"[{name}] {key}: unknown key{_suggest(key, table[name])}")
            _parse(f"[{name}] {key}", table[name][key].read, text)


def _accessor(read: Callable):
    """doc.get_<type>(section, key): [section] key read with read, defaulted and guarded.

    read may differ from the declared reader where the text reads both ways,
    e.g. get_float_list of a vectors key such as x0 gives its numbers flat.
    """
    return lambda doc, section, key: doc._get(section, key, read)


@dataclass(frozen=True)
class ConfigDocument:
    raw: bytes
    sections: dict
    #: key -> (flag, text) of the command-line flags given, read before any section
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        # a flag's text must read as its key's type and pass the key's guard in
        # the first section declaring it, the loosest ([recur] and [sweep] only
        # tighten n_paths); the guard of the section read runs again there
        for key, (flag, text) in self.flags.items():
            table = SCHEMA[self.sections["system"]["kind"]].values()
            entry = next(keys[key] for keys in table if key in keys)
            _parse(flag, entry.read, text, entry.guard)

    @staticmethod
    def from_bytes(raw: bytes) -> "ConfigDocument":
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#",))
        parser.optionxform = str
        try:
            parser.read_string(raw.decode("utf-8"))
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        if parser.defaults():  # configparser would copy these keys into every section
            raise ConfigError(f"[{parser.default_section}]: unknown section")
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        _check(sections)
        return ConfigDocument(raw, sections)

    @staticmethod
    def load(path) -> "ConfigDocument":
        p = Path(path)
        try:
            raw = p.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        return ConfigDocument.from_bytes(raw)

    def digest(self) -> str:
        return hashlib.sha256(self.raw).hexdigest()

    def origin(self, section: str, key: str) -> Optional[str]:
        """The section [section] key is read from, or None when its default applies."""
        order = (section, *FALLBACK.get(section, ())) if key in _SIMULATION else (section,)
        return next((name for name in order if key in self.sections.get(name, {})), None)

    def where(self, section: str, key: str) -> str:
        """How a message names [section] key: the flag that set it, or where it is read."""
        if key in self.flags:
            return self.flags[key][0]
        return f"[{self.origin(section, key) or section}] {key}"

    def _get(self, section: str, key: str, read: Callable):
        entry = SCHEMA[self.sections["system"]["kind"]][section][key]
        if key in self.flags:
            text = self.flags[key][1]
        else:
            origin = self.origin(section, key)
            text = entry.default if origin is None else self.sections[origin][key]
        where = self.where(section, key)
        if text is REQUIRED:
            raise ConfigError(f"missing [{section}] {key}")
        return None if text is None else _parse(where, read, text, entry.guard)

    get_str = _accessor(str.strip)
    get_float = _accessor(_float)
    get_int = _accessor(_int)
    get_float_list = _accessor(_floats)
    get_float_groups = _accessor(_groups)
    get_expr_list = _accessor(_exprs)
    get_set = _accessor(_set)


def as_document(source) -> ConfigDocument:
    """Coerce a ConfigDocument, config text (a str with a newline) or a path."""
    if isinstance(source, ConfigDocument):
        return source
    if isinstance(source, str) and "\n" in source:
        return ConfigDocument.from_bytes(source.encode("utf-8"))
    return ConfigDocument.load(source)
