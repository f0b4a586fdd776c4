"""Write reference.json: the per-epoch train_loss of each train workload's
fixed reference problem at the current sources. Rerun only when a change to
the model or optimizer is meant to move these numbers.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

from run import BLAS_THREADS, BLAS_VARS, ROOT

if __name__ == "__main__":
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ref = {w: workloads.reference_run(w) for w in ("train-paper", "train-reduced")}
    workloads.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref))
