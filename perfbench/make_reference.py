#!/usr/bin/env python3
"""Regenerates perfbench/reference/solve_large.json: the LCF social cost of
each solve-large instance, per instance seed, as the current code computes
it.

    python3 perfbench/make_reference.py [--seeds 0-63]

solve-large takes its instances from seed % 64, so the file must hold every
instance seed from 0 to 63. Run this only when a change to the solver is
meant to change social cost, and say so in the change: solve-large fails any
run whose social cost differs from the stored value, or that finds no stored
value. The file is replaced only once every seed has been computed.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "reference" / "solve_large.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range A-B")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    table = {}
    record = None
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "solve-large",
             "--seed", str(seed), "--seconds", "0.001", "--trace", "0",
             "--recompute-reference"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].split(" ", 1)[1])
        if not result["correct"] or record["reference"] != "recomputed":
            sys.exit(f"seed {seed}: run failed its checks")
        if record["instance_seed"] != seed:
            sys.exit(f"seed {seed}: the run used instance seed {record['instance_seed']}")
        table[str(seed)] = record["social_cost_per_instance"]
        print(seed, table[str(seed)], flush=True)
    doc = {"network_size": record["network_size"], "providers": record["providers"],
           "instances_per_seed": record["instances"], "social_cost": table}
    tmp = OUT.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
