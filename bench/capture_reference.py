"""Write the desk workload's reference CSVs from the library in this checkout.

Run from the root of a checkout:  python3 bench/capture_reference.py

The committed references were captured at the seed commit of the
benchmark; recapture only when an output change is intended and recorded.
"""

import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    state = workloads.Desk().setup(run.fresh_library(), None, run.WORKDIR)
    try:
        failures = [(label, result) for label, _, _, result in run.run_jobs(state.jobs) if isinstance(result, Exception)]
        if failures:
            for label, err in failures:
                print(f"{label}: {type(err).__name__}: {err}", file=sys.stderr)
            return 1
        workloads.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
        for path in sorted(state.inputs.glob("*.csv")):
            shutil.copyfile(path, workloads.REFERENCE_DIR / path.name)
            print(f"wrote {workloads.REFERENCE_DIR / path.name}")
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
