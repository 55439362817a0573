"""Write perfbench/goldens.json: the Monte Carlo tables of the eps-sweep and
nash-gap workloads at the golden seed.

    python3 perfbench/capture_goldens.py

Run it only on an implementation whose tables are trusted; the checks compare
every later implementation against these rows with a relative tolerance of
1e-9.
"""

import json
import os
import sys
import tempfile

import workloads
from checks import read_table

sys.path.insert(0, os.path.abspath(workloads.SRC))
import lqmfg.cli as cli  # noqa: E402


def main() -> int:
    goldens = {}
    os.makedirs(".perfbench_work", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench_work") as tmp:
        for name in ("eps-sweep", "nash-gap"):
            wl = workloads.WORKLOADS[name]
            (sub, extra), = wl["calls"]
            argv = workloads.argv(sub, extra, workloads.GOLDEN_SEED,
                                  wl["grid_steps"], tmp)
            if cli.run(argv) != 0:
                return 1
            _, header, rows = read_table(os.path.join(tmp, sub.replace("-", "_") + ".csv"))
            cells = [[c if c[0].isalpha() else json.loads(c) for c in r.split(",")]
                     for r in rows]
            goldens[sub] = {"seed": workloads.GOLDEN_SEED, "extra": list(extra),
                            "grid_steps": wl["grid_steps"], "header": header,
                            "rows": cells}
    os.rmdir(".perfbench_work")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
