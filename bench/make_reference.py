"""Record `reference.json`: the checked outputs of every input set.

The references were recorded once on the commit the benchmark was added
to; the correctness gates compare later commits against them. Re-record only
when a change is meant to alter these outputs, and say so in CHANGES.md.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    reference = {}
    for w in workloads.WORKLOADS.values():
        reference[w.name] = w().record()
        print(f"{w.name} recorded", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
