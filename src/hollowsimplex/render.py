"""The command line's csv and table serializations and its help text.

The command line imports this module only for `--format csv`, `--format
table` or `--help`, so a json launch, the common one, does not compile it.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from .cli import COMMANDS, GLOBAL_OPTIONS, REQUIRED


def _usage(options: dict) -> str:
    words = []
    for name, (kind, default) in options.items():
        word = f"--{name}"
        if isinstance(kind, tuple):
            word += " {" + ",".join(kind) + "}"
        elif kind is not bool:
            word += f" {kind.__name__.upper()}"
        if default is None or kind is bool:
            word = f"[{word}]"
        elif default is not REQUIRED:
            word = f"[{word}={default}]"
        words.append(word)
    return " ".join(words)


def help_text() -> Iterator[str]:
    """Every command with its help text and its options, read from the tables."""
    yield f"usage: hollowsimplex {_usage(GLOBAL_OPTIONS)} COMMAND [OPTIONS]\n\n"
    yield "Exact decisions about hollow lattice simplices and asymptotically hollow tuples.\n"
    yield "Options are --name value or --name=value; no abbreviations.\n\ncommands:\n"
    for name, (_, text, options) in COMMANDS.items():
        yield f"  {name:<11} {text}\n{'':14}{_usage(options)}\n"


def csv(doc: dict[str, Any]) -> Iterator[str]:
    """The document as csv lines: a key,value row per scalar, then one block per
    list of records."""
    def scalar(value: Any) -> str:
        text = json.dumps(value) if not isinstance(value, str) else value
        if any(c in text for c in ",\"\n"):
            return '"' + text.replace('"', '""') + '"'
        return text

    yield "key,value\n"
    tables: list[tuple[str, list[dict]]] = []
    for section in ("command", "input", "payload", "elapsed_ms"):
        if section not in doc:
            continue
        value = doc[section]
        if not isinstance(value, dict):
            yield f"{section},{scalar(value)}\n"
            continue
        for key, item in value.items():
            if isinstance(item, list) and item and all(isinstance(e, dict) for e in item):
                tables.append((f"{section}.{key}", item))
            else:
                yield f"{section}.{key},{scalar(item)}\n"
    for name, records in tables:
        headers = list(records[0].keys())
        yield f"\n{name}\n{','.join(headers)}\n"
        for rec in records:
            yield ",".join(scalar(rec.get(h)) for h in headers) + "\n"


def table(doc: Any, prefix: str = "") -> Iterator[str]:
    """The document as text lines: `key: value` per scalar, an aligned table per
    list of records."""
    if isinstance(doc, dict):
        for key, item in doc.items():
            yield from table(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(doc, list) and doc and all(isinstance(e, dict) for e in doc):
        headers = list(doc[0].keys())
        widths = [max(len(h), *(len(json.dumps(r.get(h), default=str)) for r in doc))
                  for h in headers]
        yield f"{prefix}:\n"
        yield "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n"
        for rec in doc:
            cells = (json.dumps(rec.get(h), default=str).ljust(w) for h, w in zip(headers, widths))
            yield "  " + "  ".join(cells) + "\n"
    else:
        yield f"{prefix}: {json.dumps(doc, default=str)}\n"
