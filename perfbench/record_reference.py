"""Record reference.json: the outputs the benchmark's checks compare against.

For every data seed 0..REFERENCE_SEEDS-1 it stores the aggregated
imse1/imse2/mse1/mse2 table (mean, sd) of one full ``mc_paper`` cycle per
method, and the component count, leading eigenvalues and kept eigenvalue sum
of the ``fit_large_n`` fit.  Run it from the repository root against the
library version whose outputs are the reference:

    python3 perfbench/record_reference.py
"""

import json
import sys

import run


def main() -> int:
    run.import_library()
    import kfpca.metrics as metrics
    import workloads

    mc = workloads.McPaper()
    large = workloads.FitLargeN()
    doc = {
        "rtol": workloads.RTOL,
        "seeds": workloads.REFERENCE_SEEDS,
        mc.name: {},
        large.name: {},
    }
    for seed in range(workloads.REFERENCE_SEEDS):
        # neither workload writes files, so no work directory is needed
        mc.prepare(seed, None)
        outputs = mc.warm_up()
        doc[mc.name][str(seed)] = {
            method: metrics.aggregate(outputs[m::2])
            for m, method in enumerate(mc.METHODS)
        }
        large.prepare(seed, None)
        doc[large.name][str(seed)] = workloads.fit_record(large.op(0))
        print(f"seed {seed} recorded", file=sys.stderr)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
