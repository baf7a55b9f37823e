#!/usr/bin/env python3
"""Record the SHA-256 of every operation's stdout into digests.json.

    python3 perfbench/record_digests.py

Runs each workload's pass once at the default seed and once at seed 1,
requiring every oracle to pass. Operations whose inputs do not depend on
the seed must give the same bytes at both seeds; their digests are checked
on every seed. The others are checked at the default seed only. Re-record
only when an output is meant to change: the file formats are bit-exact.
"""

import json
import shutil
import sys

import run
import workloads

OTHER_SEED = 1


def digests_of(workload, seed, work):
    ctx = run.set_up(workload, seed, work)[0]
    runner = run.Runner(workload, seed, work)
    runner.digests = {"default_seed": {}, "every_seed": {}}
    out = {}
    for op in ctx.ops:
        sample = runner.run(op)
        if sample["problems"]:
            sys.exit(f"{workload}/{op.id} at seed {seed}: "
                     f"{'; '.join(sample['problems'])}")
        out[op.id] = (op, sample["digest"])
    return out


def main():
    work = run.ROOT / ".bench_work" / "record"
    every, default = {}, {}
    try:
        for workload in sorted(workloads.WORKLOADS):
            first = digests_of(workload, run.DEFAULT_SEED, work)
            second = digests_of(workload, OTHER_SEED, work)
            for op_id, (op, digest) in sorted(first.items()):
                key = f"{workload}/{op_id}"
                if not op.seed_invariant:
                    default[key] = digest
                elif digest == second[op_id][1]:
                    every[key] = digest
                else:
                    sys.exit(f"{key} is marked seed-invariant but its "
                             f"output changed with the seed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    doc = {"default_seed_value": run.DEFAULT_SEED, "every_seed": every,
           "default_seed": default}
    run.DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"{len(every)} seed-invariant and {len(default)} default-seed "
          f"digests written to {run.DIGESTS.name}")


if __name__ == "__main__":
    main()
