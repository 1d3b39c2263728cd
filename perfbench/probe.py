"""Helper processes of the benchmark.

``probe.py setup WORKLOAD SEED``  import the library and build the inputs;
                                  the caller times the whole process.
``probe.py import``               print the time of ``import curveinv``.
``probe.py schedules``            rewrite ``schedules.json``.
"""

import sys
import time

import checkout


def main(argv) -> None:
    checkout.use_source()
    if argv[:1] == ["import"]:
        t0 = time.perf_counter()
        import curveinv  # noqa: F401

        print(time.perf_counter() - t0)
        return
    import workloads

    if argv[:1] == ["setup"] and len(argv) == 3:
        workloads.build(argv[1], int(argv[2]), workloads.WORKLOADS[argv[1]].pass_items)
    elif argv == ["schedules"]:
        workloads.write_schedules()
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
