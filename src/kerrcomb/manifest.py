"""Run manifests: config digest plus checksums of every emitted file.

Manifests are byte-reproducible: identical configurations and inputs
produce identical manifests. Wall-clock time is therefore excluded
unless the caller opts in through the SOURCE_DATE_EPOCH convention.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from . import __version__

__all__ = ["write_output", "write_manifest", "sha256_file"]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_output(out_dir: Path, name: str, content: str) -> Path:
    """Write ``content`` as UTF-8 with LF line ends, whatever the locale."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(content, encoding="utf-8", newline="\n")
    return path


def write_manifest(out_dir: Path, config_digest: str,
                   outputs: list[Path], extra: dict | None = None) -> Path:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    manifest = {
        "artifact_version": __version__,
        "config_sha256": config_digest,
        "timestamp": int(epoch) if epoch is not None else None,
        "outputs": {p.name: sha256_file(p) for p in sorted(outputs)},
    }
    if extra:
        manifest["parameters"] = extra
    body = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    return write_output(out_dir, "manifest.json", body)
