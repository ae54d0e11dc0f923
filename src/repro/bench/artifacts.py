"""Where a perf suite's ``BENCH_<suite>.json`` lands, and at which size.

The committed files at the repository root are full-size (``smoke:
false``) measurements, so a smoke run must never land on them: smoke
output goes to the git-ignored sibling ``BENCH_<suite>.smoke.json``, and a
smoke artifact refuses to replace any file holding ``smoke: false`` (a
full-size artifact copied onto the smoke path, say).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict


def artifact_target(path: Path, smoke: bool) -> Path:
    """Where a suite's artifact lives: ``path`` itself for a full-size run,
    the git-ignored sibling ``<stem>.smoke.json`` for a smoke run."""
    return path.with_name(f"{path.stem}.smoke{path.suffix}") if smoke else path


def write_artifact(path: Path, artifact: Dict[str, object]) -> Path:
    """Write a ``BENCH_*.json`` artifact; returns the path written."""
    smoke = bool(artifact["smoke"])
    target = artifact_target(path, smoke)
    if smoke and target.exists() \
            and not json.loads(target.read_text()).get("smoke", False):
        raise RuntimeError(
            f"refusing to replace the full-size artifact {target} "
            "with a smoke run")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(artifact, indent=2) + "\n")
    return target
