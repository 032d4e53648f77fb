"""Run one signscribe benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from the repository root; the package is imported from `src/`. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`. Earlier lines
give the machine and the figures under their descriptive names. The full
record goes to perfbench/results/, traced spans beside it.

`--workload all` runs every workload in its own process and prints each
one's figures. The exit code is 1 when an output check failed.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before NumPy loads. One thread never exceeds the
# core count; on a 2-core machine one thread and the default measured the same.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "corpus_decode", "translate_requests")


def import_package() -> None:
    """Put the checkout's `src/` first on the path; refuse any other copy."""
    package = SRC / "signscribe"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no signscribe sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import signscribe

    if Path(signscribe.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported signscribe from {signscribe.__file__}, "
                         f"not from {package}")


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "signscribe").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def _print_named(named: dict) -> None:
    for name, m in named.items():
        print(f"{name} {m['value']!r} {m['unit']}")


def run_one(args) -> int:
    import_package()
    import bench

    machine = machine_info(args.seed)
    work = HERE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        record = bench.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tracer = record.pop("tracer", None)
    record.update(machine=machine, seconds=args.seconds, trace=args.trace)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(results / f"{stem}.spans.jsonl")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    print("machine: " + json.dumps(machine, sort_keys=True))
    print("named: " + json.dumps(record["named"]))
    _print_named(record["named"])
    print(f"operations {record['ops']}, items attempted {record['attempted']}, "
          f"failed {record['failed']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                     "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        named = next((json.loads(line[len("named: "):]) for line in lines
                      if line.startswith("named: ")), None)
        if named is None or child.returncode != 0:
            sys.stderr.write(child.stderr)
            print("\n".join(lines[:-1]))
            print(f"{workload}: FAILED (exit {child.returncode})")
            correct = False
            if named is None:
                continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload}")
        _print_named(named)
        for name, m in named.items():
            key = f"{name}.{workload}" if name in ("setup_s", "peak_rss_mb") else name
            metrics[key] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each workload repeats its operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
