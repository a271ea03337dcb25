"""Persistence of experiment outputs: tables, summaries, manifests.

Metric tables are comma-separated text with a header row, UTF-8, LF line
endings, ``.`` decimal separator and 17-significant-digit floats, so two
runs with identical configuration produce byte-identical tables on the
same platform/numpy build (digest equality is the determinism check;
bit-exactness across platforms additionally requires identical BLAS/libm
rounding).  Missing values are empty fields.  Every bundle carries a
``<prefix>_manifest.json`` listing each emitted file with the SHA-256
digest of the bytes written and the subcommand that wrote it; timestamps
live only in the manifest so the tables stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
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


def write_table(path: Path, header, rows) -> str:
    """Write a table and return the SHA-256 hex digest of its bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
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
    command: str | None = None
    digests: dict = field(default_factory=dict)     # path -> SHA-256 written

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
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8", newline="\n")
        return path


def verify_manifest(manifest_path) -> bool:
    """True iff every listed output exists with a matching digest."""
    manifest_path = Path(manifest_path)
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in data.get("outputs", []):
        p = manifest_path.parent / entry["path"]
        if not p.exists() or sha256_of(p) != entry["sha256"]:
            return False
    return True
