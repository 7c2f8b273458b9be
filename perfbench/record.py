"""Record the sim reference outputs the benchmark checks cells against.

    python3 perfbench/record.py --seed 0            # pin perfbench/reference/seed-0.json
    python3 perfbench/record.py --seed 5 --stdout   # print smp_sim's outputs

Only sim cells are pinned: they are the bit-identical contract.  The
analytic workload takes its accuracy reference and its per-thread
signatures from smp_sim's outputs for the same seed -- pinned when the
seed has a file, otherwise computed by running this script as a child
process, outside the analytic workload's timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

#: workloads whose cells run the sim backend and are pinned
PINNED = ("smp_sim", "sparse_server", "footprint_trace")


def _path(seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"seed-{seed}.json")


def pinned_outputs(cells_mod, workload: str, seed: int) -> Dict[str, dict]:
    """Run a workload's cells once; the outputs a reference pins (a cell
    that raised keeps its ``error``)."""
    outputs = cells_mod.run_sweep(cells_mod.WORKLOADS[workload], seed)
    return {key: cells_mod.pinned(out) for key, out in outputs.items()}


def load(seed: int) -> Optional[Dict[str, Dict[str, dict]]]:
    """The pinned outputs for ``seed`` by workload, or ``None``."""
    try:
        with open(_path(seed)) as fh:
            return json.load(fh)["workloads"]
    except FileNotFoundError:
        return None


def sim_reference(seed: int) -> Dict[str, dict]:
    """smp_sim's outputs for ``seed``: pinned, or from a child process."""
    pinned = load(seed)
    if pinned is not None:
        return pinned["smp_sim"]
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "record.py"), "--seed", str(seed),
         "--stdout"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(child.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stdout", action="store_true",
                        help="print smp_sim's outputs instead of pinning")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import cells

    if args.stdout:
        json.dump(pinned_outputs(cells, "smp_sim", args.seed), sys.stdout)
        return 0
    workloads = {w: pinned_outputs(cells, w, args.seed) for w in PINNED}
    for outputs in workloads.values():
        for key, out in outputs.items():
            if "error" in out:
                raise SystemExit(f"cannot pin {key}: {out['error']}")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(_path(args.seed), "w") as fh:
        json.dump({"seed": args.seed, "workloads": workloads}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {_path(args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
