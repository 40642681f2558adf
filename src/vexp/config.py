"""Parser for the audit configuration format.

A small TOML-like subset, enough for nested tables of scalars and arrays:

    # comment
    [defaults]
    r = 2

    [[case]]
    theorem = "steklov_bound"
    f = "@gauss"
    p = "@p2"
    deltas = [0.1, 0.5, 1.0, 2.0]

`[name]` opens a table, `[[name]]` appends a new table to the list `name`.
Values are strings ("..."), numbers, booleans, or flat arrays of those.
Errors carry line and column positions.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ConfigError", "parse_config"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def _parse_scalar(text: str, lineno: int, col: int) -> Any:
    t = text.strip()
    if not t:
        raise ConfigError("empty value", lineno, col)
    if t.startswith('"'):
        if not (len(t) >= 2 and t.endswith('"')):
            raise ConfigError("unterminated string", lineno, col)
        return t[1:-1]
    if t == "true":
        return True
    if t == "false":
        return False
    try:
        if any(c in t for c in ".eE") and not t.lstrip("+-").isdigit():
            return float(t)
        return int(t)
    except ValueError:
        raise ConfigError(f"cannot parse value {t!r}", lineno, col) from None


def _split_array(body: str, lineno: int, col: int) -> list[str]:
    items, cur, in_str = [], [], False
    for ch in body:
        if ch == '"':
            in_str = not in_str
        if ch == "," and not in_str:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if in_str:
        raise ConfigError("unterminated string in array", lineno, col)
    if "".join(cur).strip():
        items.append("".join(cur))
    return items


def _parse_value(text: str, lineno: int, col: int) -> Any:
    t = text.strip()
    if t.startswith("["):
        if not t.endswith("]"):
            raise ConfigError("unterminated array", lineno, col)
        return [_parse_scalar(item, lineno, col)
                for item in _split_array(t[1:-1], lineno, col)]
    return _parse_scalar(t, lineno, col)


def parse_config(text: str) -> dict:
    """Parse configuration text into {table: dict, list_table: [dict, ...]}."""
    root: dict[str, Any] = {}
    current: dict[str, Any] = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[["):
            if not line.endswith("]]"):
                raise ConfigError("malformed table header", lineno)
            name = line[2:-2].strip()
            if not name:
                raise ConfigError("empty table name", lineno)
            entry: dict[str, Any] = {}
            root.setdefault(name, [])
            if not isinstance(root[name], list):
                raise ConfigError(f"{name!r} is already a non-list table", lineno)
            root[name].append(entry)
            current = entry
        elif line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed table header", lineno)
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty table name", lineno)
            if name in root and not isinstance(root[name], dict):
                raise ConfigError(f"{name!r} is already a list table", lineno)
            current = root.setdefault(name, {})
        else:
            if "=" not in line:
                raise ConfigError("expected key = value", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError("empty key", lineno)
            col = raw.index("=") + 2
            current[key] = _parse_value(value, lineno, col)
    return root
