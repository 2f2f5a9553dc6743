"""Write the Cora-CA-shaped dataset directory that the coraca workloads read.

    python3 perfbench/prepare.py

Run from the repository root. The directory (about 78 MB of text) is built
in a scratch directory next to it and renamed into place, so an interrupted
run never leaves a partial dataset behind. A directory whose SPEC.json
matches the current generator settings is left as it is.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from workloads import CORACA_DIR, CORACA_GENERATOR_SEED, CORACA_SYNTHETIC

STAMP = "SPEC.json"


def stamp() -> str:
    return json.dumps({"seed": CORACA_GENERATOR_SEED, "synthetic": CORACA_SYNTHETIC}, sort_keys=True)


def is_ready(root: Path) -> bool:
    path = root / CORACA_DIR / STAMP
    return path.is_file() and path.read_text() == stamp()


def main() -> int:
    root = Path.cwd()
    if is_ready(root):
        return 0
    sys.path.insert(0, str(root / "src"))
    from hgmeta.data import SyntheticSpec, generate_synthetic, save_dataset

    target = root / CORACA_DIR
    scratch = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    ds = generate_synthetic(SyntheticSpec(**CORACA_SYNTHETIC), CORACA_GENERATOR_SEED)
    save_dataset(ds, scratch)
    (scratch / STAMP).write_text(stamp())
    shutil.rmtree(target, ignore_errors=True)
    os.replace(scratch, target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
