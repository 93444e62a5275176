"""Record the golden fingerprints that every benchmark run checks.

    python3 perfbench/record_golden.py

For each workload and each seed in ``harness.GOLDEN_SEEDS`` it runs the first
``harness.GOLDEN_OPS[workload]`` ops and writes their output fingerprints to
``golden.json``. Re-record only when a change alters outputs on purpose, and
say why in CHANGES.md; a run whose outputs differ from the recording counts
those ops as failed.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.bootstrap()
    import harness

    golden = {}
    workdir = os.path.join(run.OUT_DIR, f"golden-{os.getpid()}")
    for name in run.WORKLOAD_NAMES:
        golden[name] = {}
        for seed in harness.GOLDEN_SEEDS:
            workload = harness.make_workload(name, seed, workdir)
            try:
                results = [harness.run_op(workload, i, None) for i in range(harness.GOLDEN_OPS[name])]
            finally:
                workload.close()
            for result in results:
                if result.failed:
                    print(f"{name} seed {seed} op {result.index}: {result.problems}", file=sys.stderr)
                    return 1
            golden[name][str(seed)] = [result.fingerprint for result in results]
            print(f"{name} seed {seed}: {len(results)} ops", flush=True)
    with open(harness.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
