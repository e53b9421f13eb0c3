"""Write bench/pins.json: the sha256 of input file 0 of seeds 0-99, and of
the canary files, for every workload.

    python3 bench/pin.py

Run it only when a change to bench/workloads.py is meant to change the
inputs; such a change moves every baseline and is a benchmark change.
"""

import json
import os

import workloads as W
from run import CANARY

SEEDS = range(100)


def main() -> None:
    pins = {}
    for name, gen in W.WORKLOADS.items():
        keys = sorted({(s, 0) for s in SEEDS} | set(CANARY))
        pins[name] = {f"{s}:{i}": W.digest(gen(s, i)[0]) for s, i in keys}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
