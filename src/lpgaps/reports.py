"""Versioned, byte-deterministic report documents.

Every CLI run produces one JSON document: a schema tag, the full run
configuration (for provenance and reproduction), and the result.
to_jsonable is the one encoder of values: all rational values are
rendered as "p/q" strings, never floats, and tuples as lists; keys are
sorted and no timestamps are embedded, so identical configurations
produce identical bytes. CSV output is a projection of that same
document: flat key/value rows, or, for results that carry a natural
table (scan rows, growth tables, cutting-plane rounds), a CSV table
read off the document's rows behind '#'-prefixed config comment lines,
each cell the document's value. write_text is the one way lpgaps
writes a file.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import stat
from fractions import Fraction
from typing import Any, Optional

SCHEMA = "lpgaps-report/1"


def to_jsonable(value: Any) -> Any:
    """Recursively convert package values to JSON-safe structures."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"no report encoding for {type(value)!r}")


def report_document(subcommand: str, config: Any, result: Any) -> dict:
    return {
        "schema": SCHEMA,
        "subcommand": subcommand,
        "config": to_jsonable(config),
        "result": to_jsonable(result),
    }


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def flatten(value: Any, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-key flat projection of a JSON-able structure; an empty
    list or dict is one row with an empty cell, so every key of the
    document has a row."""
    items: list[tuple[str, str]] = []
    if value == [] or value == {}:
        items.append((prefix, ""))
    elif isinstance(value, dict):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            items.extend(flatten(value[key], sub))
    elif isinstance(value, list):
        for idx, entry in enumerate(value):
            sub = f"{prefix}.{idx}" if prefix else str(idx)
            items.extend(flatten(entry, sub))
    else:
        items.append((prefix, _csv_cell(value)))
    return items


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, list):
        return " ".join(_csv_cell(v) for v in value)
    return str(value)


def render_csv(doc: dict, table: Optional[tuple] = None) -> str:
    """The document as CSV. table, when given, is the keys that lead
    from doc["result"] to its rows and each column's (header, row key):
    a result that holds those rows is written as that table, with the
    config flattened into leading comment lines, and any other document
    as flat key/value rows. Every cell is _csv_cell of a document value,
    so a table holds exactly the values of the JSON report."""
    rows = None
    if table is not None:
        path, columns = table
        rows = doc["result"]
        for key in path:
            rows = rows.get(key)
    out = io.StringIO()
    writer = csv.writer(out)
    if rows is None:
        writer.writerow(["key", "value"])
        writer.writerows(flatten(doc))
        return out.getvalue()
    out.write(f"# schema={doc['schema']}\n")
    out.write(f"# subcommand={doc['subcommand']}\n")
    for key, rendered in flatten(doc["config"], "config"):
        out.write(f"# {key}={rendered}\n")
    writer.writerow([header for header, _ in columns])
    for row in rows:
        writer.writerow([_csv_cell(row[key]) for _, key in columns])
    return out.getvalue()


def write_text(path, text: str) -> None:
    """Write text to path, as Path.write_text does, but over the bytes
    already there instead of truncating the file to zero first: on ext4
    (auto_da_alloc) closing a file that was truncated to zero and
    rewritten starts its writeback, several times the cost of the write
    itself. A regular file is then cut to the written length, so it
    holds exactly text and keeps its inode and mode; a device or a pipe
    is written as it is. The old bytes are never read and every call
    writes."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as out:
        out.write(text)
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()
