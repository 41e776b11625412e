"""Record the output digests every workload is checked against.

    python3 bench/record_reference.py

Runs each workload once at the default seed and writes the SHA-256 of
each output to bench/reference.json. Record them only from a commit whose
outputs are known to be right: the benchmark counts every later run whose
outputs differ at that seed as failed.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sim = run.import_program()
    if sim is None:
        print("stablesim sources not found under src/", file=sys.stderr)
        return 2
    import gate
    import scenarios

    reference = {}
    for name in scenarios.WORKLOADS:
        bench = run.Bench(sim, name, scenarios.DEFAULT_SEED)
        bench.gate = gate.Gate(None)
        texts = bench.one_run()
        if texts is None or bench.failed or bench.errors or bench.gate.problems:
            print(f"{name}: run failed, nothing recorded: {bench.errors} "
                  f"{bench.gate.problems}", file=sys.stderr)
            return 1
        reference[name] = {"seed": scenarios.DEFAULT_SEED, "digests": gate.digests(texts)}
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {gate.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
