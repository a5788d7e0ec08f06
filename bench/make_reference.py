"""Record ``reference.json``: the outputs of every workload instance at this commit.

    python3 bench/make_reference.py [workload ...]

Each instance's experiment runs once, untimed.  Recording refuses an
instance on which an operation fails or a weight-matrix invariant does not
hold, since the benchmark's workloads are chosen so that none does.  Only the
named workloads are re-recorded; the others keep their stored outputs.
"""

import json
import sys

import run as bench


def main(names):
    bench.import_simulator()
    wl = bench.workloads_mod
    workloads = wl.all_workloads(bench.OUT, bench.NPROC)
    refs = json.loads(bench.REFERENCE.read_text()) if bench.REFERENCE.exists() else {}
    for name in names or bench.WORKLOAD_NAMES:
        workload = workloads[name]
        refs[name] = {}
        for variant in range(wl.VARIANTS):
            setup_s, exp_s, ctx, outputs = bench.one_rep(workload, variant)
            record = outputs.to_json()
            if any(v is None for v in record["ops"].values()) or any(
                v is None for v in record["summaries"].values()
            ):
                sys.exit(f"error: {name} instance {variant}: an operation failed")
            if not wl.weight_pair_ok(ctx["weights"]):
                sys.exit(f"error: {name} instance {variant}: weight-pair invariant violated")
            refs[name][str(variant)] = record
            print(f"{name} instance {variant}: {len(record['ops'])} operations, "
                  f"set-up {setup_s:.3f}s, experiment {exp_s:.3f}s", flush=True)
    bench.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
