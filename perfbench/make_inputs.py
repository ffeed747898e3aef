"""Write one workload's inputs and report how long that took.

Usage::

    python3 perfbench/make_inputs.py --workload sweep --seed 3 --out DIR

Run in a fresh interpreter, so that ``import_s`` is a cold import of
``burstmine.cli``.  Prints one JSON object: ``import_s``, ``generate_s``
(building the input texts in memory), ``write_s`` (writing them), ``ref_s``
(the reference workload's time, for calibration), the input facts (runs,
segments, events or matrix cells) and a SHA-256 over the files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    t0 = time.perf_counter()
    import burstmine.cli  # noqa: F401  (timed: the cost every command pays)
    import_s = time.perf_counter() - t0

    from perfbench.reference import reference_seconds
    from perfbench.workloads import WORKLOADS
    ref_s = reference_seconds()
    t0 = time.perf_counter()
    files, facts = WORKLOADS[args.workload].make_inputs(args.seed)
    generate_s = time.perf_counter() - t0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    write_s = time.perf_counter() - t0

    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    print(json.dumps({"import_s": import_s, "generate_s": generate_s,
                      "write_s": write_s, "ref_s": ref_s, "facts": facts,
                      "sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
