"""Persistence of experiment outputs: tables, summaries, manifests.

Metric tables are comma-separated text with a header row, UTF-8, LF line
endings, ``.`` decimal separator and 17-significant-digit floats, so two
runs with identical configuration produce byte-identical tables on the
same platform/numpy build (digest equality is the determinism check;
bit-exactness across platforms additionally requires identical BLAS/libm
rounding).  Missing values are empty fields.  A text field that holds a
comma, a double quote, CR or LF is quoted as RFC 4180 says, inner quotes
doubled; numbers, bools and empty fields never need it.  A table whose
every column is all exact ``int`` or all ``float`` (subclasses included)
is rendered through one ``%`` template, which gives ``format_value``'s
bytes; any other table is rendered a row at a time.  Every bundle carries
a ``<prefix>_manifest.json``, compact JSON with sorted keys, listing each
emitted file with the SHA-256 digest of the bytes written and the
subcommand that wrote it; timestamps live only in the manifest so the
tables stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["format_value", "write_table", "write_summary", "ReportBundle",
           "verify_manifest", "TOOL_VERSION"]

TOOL_VERSION = "gossipgap 0.1.0"


def format_value(v) -> str:
    """17-significant-digit float formatting; empty string for missing."""
    if v is None:
        return ""
    if isinstance(v, (int,)) and not isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(v)


def _spec(types) -> str | None:
    """The ``%`` spec that formats values of every type in ``types`` as
    ``format_value`` does, NaN aside; None when one of them needs
    ``format_value`` (``None``, ``bool``, ``str``, numpy ints, ``np.float32``)."""
    if all(t is int for t in types):
        return "%d"
    if all(issubclass(t, float) for t in types):
        return "%.17g"
    return None


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _quote(s: str) -> str:
    """``s`` as a CSV field: quoted when it holds a comma, a quote, CR or LF."""
    return '"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES(s) else s


def _render(rows: list) -> str:
    """``rows`` (tuples) as LF-terminated CSV lines: through one template
    when every column is all exact ints or all floats, else each row as a
    one-row table, and a row that fails that too one field at a time."""
    if len(set(map(len, rows))) == 1:
        specs = [_spec(set(map(type, col))) for col in zip(*rows)]
        if None not in specs:
            # a body of %d and %.17g fields holds "nan" only as a whole NaN field
            return ("\n".join(map(",".join(specs).__mod__, rows))
                    + "\n").replace("nan", "")
    if len(rows) == 1:
        return ",".join(_quote(format_value(v)) for v in rows[0]) + "\n"
    return "".join(_render([row]) for row in rows)


def write_table(path: Path, header, rows) -> str:
    """Write a table and return the SHA-256 hex digest of its bytes."""
    data = (",".join(map(_quote, header)) + "\n"
            + _render(list(map(tuple, rows)))).encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_summary(path: Path, items: dict) -> str:
    return write_table(path, ("key", "value"), items.items())


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class ReportBundle:
    """Collects tables/summaries for one subcommand run and writes them."""

    outdir: Path
    prefix: str
    config_echo: dict
    command: str
    digests: dict = field(default_factory=dict, init=False)     # path -> SHA-256 written

    def __post_init__(self):
        self.outdir = Path(self.outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def add_table(self, name: str, header, rows) -> Path:
        path = self.outdir / f"{self.prefix}_{name}.csv"
        self.digests[path] = write_table(path, header, rows)
        return path

    def add_summary(self, items: dict) -> Path:
        path = self.outdir / f"{self.prefix}_summary.csv"
        self.digests[path] = write_summary(path, items)
        return path

    def write_manifest(self) -> Path:
        manifest = {
            "tool": TOOL_VERSION,
            "command": self.command,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": self.config_echo,
            "outputs": [{"path": p.name, "sha256": d}
                        for p, d in sorted(self.digests.items())],
        }
        path = self.outdir / f"{self.prefix}_manifest.json"
        path.write_text(json.dumps(manifest, sort_keys=True) + "\n",
                        encoding="utf-8", newline="\n")
        return path


def _is_file_name(name) -> bool:
    """True for a plain file name: no directory part, not ``.`` or ``..``."""
    return isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name


def verify_manifest(manifest_path) -> bool:
    """True iff the manifest is a JSON object whose every listed output is
    a plain file name (no directory part) that exists in the manifest's
    directory with a matching digest; False for an unreadable, truncated
    or malformed manifest too."""
    manifest_path = Path(manifest_path)
    try:
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
        return all(_is_file_name(entry["path"]) and
                   sha256_of(manifest_path.parent / entry["path"]) == entry["sha256"]
                   for entry in data.get("outputs", []))
    except (OSError, ValueError, AttributeError, KeyError, TypeError):
        return False
