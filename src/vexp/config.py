"""The audit configuration format: TOML, read with the standard `tomllib`.

    # comment
    [defaults]
    r = 2

    [[case]]
    theorem = "steklov_bound"
    f = "@gauss"
    p = "@p2"
    deltas = [0.1, 0.5, 1.0, 2.0]

`[defaults]` holds keys shared by every case, and each `[[case]]` table
appends one case.  Malformed text raises `tomllib.TOMLDecodeError`, a
`ValueError` whose message gives the line and column.
"""

from __future__ import annotations

import tomllib

__all__ = ["parse_config"]


def parse_config(text: str) -> dict:
    """Parse configuration text into {table: dict, list_table: [dict, ...]}."""
    return tomllib.loads(text)
