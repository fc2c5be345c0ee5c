"""Regenerate the stored DPL(n,4) descriptors the decode workload loads.

Usage (from the checkout root): python3 perfbench/regen.py

Each file is codes.code_to_json(codes.construct_dpl4(n, q)) for one
(n, q) of workloads.DECODE_CODES, written to perfbench/data/.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from leecodes import codes  # noqa: E402
from workloads import DATA, DECODE_CODES, descriptor_path  # noqa: E402


def main():
    DATA.mkdir(exist_ok=True)
    for n, q in DECODE_CODES:
        path = descriptor_path(n, q)
        path.write_text(codes.code_to_json(codes.construct_dpl4(n, q)) + "\n")
        print(f"wrote {path.relative_to(Path.cwd())}")


if __name__ == "__main__":
    main()
