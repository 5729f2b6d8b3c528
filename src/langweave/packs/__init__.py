"""Bundled example languages, runnable by id with zero configuration."""

import json
from pathlib import Path

PACK_ROOT = Path(__file__).resolve().parent


def pack_ids():
    return sorted(p.name for p in PACK_ROOT.iterdir()
                  if p.is_dir() and (p / "manifest.json").exists())


def load_manifest(pack_id):
    path = PACK_ROOT / pack_id / "manifest.json"
    if not pack_id.isidentifier() or not path.exists():
        raise KeyError(f"no bundled pack named {pack_id!r}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["_dir"] = PACK_ROOT / pack_id
    return manifest


def pack_source(manifest):
    key = "grammar" if manifest["kind"] == "grammar" else "script"
    return (manifest["_dir"] / manifest[key]).read_text(encoding="utf-8")
