#!/usr/bin/env python3
"""Regenerate bench/reference.json, the stored values the benchmark checks against.

For every sweep point it stores the mean and standard error of a long run at a
seed no benchmark pass uses; for every analytic grid point, both ZF B
optimizers. The stored file was made with:

    FBSIM_THREADS=1 python3 bench/make_reference.py --trials 10000 --seed 1000000007
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=1_000_000_007)
    args = ap.parse_args()

    refs = {}
    for name, w in workloads.WORKLOADS.items():
        _, outcomes = workloads.run_pass(w, args.seed, args.trials)
        refs[name] = {}
        for o in outcomes:
            if o.error is not None:
                print(f"{name} {o.key} raised; no reference written", file=sys.stderr)
                return 1
            if o.estimate is not None:
                refs[name][o.key] = {"mean": o.estimate.mean, "std_error": o.estimate.std_error,
                                     "trials": o.estimate.trials}
            else:
                refs[name][o.key] = {"fixed_point": o.solves[0], "lambert": o.solves[1]}
        print(f"{name}: {len(outcomes)} references", file=sys.stderr)

    doc = {
        "command": f"FBSIM_THREADS={os.environ.get('FBSIM_THREADS', '')} python3 bench/make_reference.py "
                   f"--trials {args.trials} --seed {args.seed}",
        "trials": args.trials,
        "seed": args.seed,
        "workloads": refs,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
