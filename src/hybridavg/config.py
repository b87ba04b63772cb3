"""Structured run configuration: one INI-style document with typed accessors.

The raw bytes are kept alongside the parsed sections so run manifests can
record a content hash that changes exactly when the config bytes change.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import SetDescriptor


class ConfigError(ValueError):
    """A malformed or incomplete run configuration (CLI exit code 1)."""


@dataclass(frozen=True)
class ConfigDocument:
    raw: bytes
    sections: dict
    path: Optional[str] = None

    @staticmethod
    def from_bytes(raw: bytes, path: Optional[str] = None) -> "ConfigDocument":
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#",))
        parser.optionxform = str
        try:
            parser.read_string(raw.decode("utf-8"))
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        return ConfigDocument(raw, sections, path)

    @staticmethod
    def from_text(text: str) -> "ConfigDocument":
        return ConfigDocument.from_bytes(text.encode("utf-8"))

    @staticmethod
    def load(path) -> "ConfigDocument":
        p = Path(path)
        try:
            raw = p.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        return ConfigDocument.from_bytes(raw, str(p))

    def digest(self) -> str:
        return hashlib.sha256(self.raw).hexdigest()

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def has(self, section: str, key: str) -> bool:
        return key in self.sections.get(section, {})

    def _get(self, section: str, key: str, default, required: bool):
        sec = self.sections.get(section, {})
        if key not in sec:
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return None, default
        return sec[key], default

    def get_str(self, section: str, key: str, default: Optional[str] = None,
                required: bool = False) -> Optional[str]:
        raw, default = self._get(section, key, default, required)
        return default if raw is None else raw.strip()

    def get_float(self, section: str, key: str, default: Optional[float] = None) -> float:
        raw, default = self._get(section, key, default, default is None)
        if raw is None:
            return float(default)
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
        return value

    def get_int(self, section: str, key: str, default: Optional[int] = None) -> int:
        raw, default = self._get(section, key, default, default is None)
        if raw is None:
            return int(default)
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc

    @staticmethod
    def _floats(section: str, key: str, text: str) -> list:
        try:
            values = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected numbers: {text.strip()!r}") from exc
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"[{section}] {key}: expected finite numbers: {text.strip()!r}")
        return values

    def get_float_list(self, section: str, key: str,
                       default: Optional[list] = None) -> list:
        raw, default = self._get(section, key, default, default is None)
        if raw is None:
            return list(default)
        return self._floats(section, key, raw)

    def get_float_groups(self, section: str, key: str,
                         default: Optional[list] = None) -> list:
        """';'-separated groups of numbers (one vector or axis each); empty groups are skipped."""
        raw, default = self._get(section, key, default, default is None)
        if raw is None:
            return [list(group) for group in default]
        return [self._floats(section, key, chunk) for chunk in raw.split(";") if chunk.strip()]

    def get_expr_list(self, section: str, key: str) -> list:
        raw, _ = self._get(section, key, None, True)
        parts = [part.strip() for part in raw.split(";")]
        return [p for p in parts if p]

    def get_set(self, section: str, key: str, dim: int) -> SetDescriptor:
        raw, _ = self._get(section, key, None, True)
        parts = []
        for chunk in raw.split("|"):
            toks = chunk.split()
            if not toks:
                continue
            shape, vals = toks[0], self._floats(section, key, " ".join(toks[1:]))
            if shape == "box":
                if len(vals) != 2 * dim:
                    raise ConfigError(
                        f"[{section}] {key}: box needs {2 * dim} numbers (lo hi per dim)")
                lo, hi = vals[0::2], vals[1::2]
                if not all(a <= b for a, b in zip(lo, hi)):
                    raise ConfigError(f"[{section}] {key}: box needs lo <= hi per dim, "
                                      f"got {chunk.strip()!r}")
                parts.append(SetDescriptor.box(lo, hi))
            elif shape == "point":
                if len(vals) != dim:
                    raise ConfigError(f"[{section}] {key}: point needs {dim} number(s)")
                parts.append(SetDescriptor.point(vals))
            else:
                raise ConfigError(
                    f"[{section}] {key}: unknown set shape {shape!r} (use box/point)")
        if not parts:
            raise ConfigError(f"[{section}] {key}: empty set description")
        return SetDescriptor.union_of(parts)


def as_document(source) -> ConfigDocument:
    """Coerce a path, text, or ConfigDocument into a ConfigDocument."""
    if isinstance(source, ConfigDocument):
        return source
    if isinstance(source, bytes):
        return ConfigDocument.from_bytes(source)
    if isinstance(source, str) and "\n" not in source and "[" not in source:
        return ConfigDocument.load(source)
    if isinstance(source, str):
        return ConfigDocument.from_text(source)
    return ConfigDocument.load(source)
