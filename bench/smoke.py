"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/smoke.py

For every workload it runs bench/run.py untraced and traced and checks that
every metric named in BENCHMARK.json is emitted with its unit, that no
output check failed, and that traced and untraced rounds produced the same
result digest. It also checks that layers.json and BENCHMARK.json name the
same per-layer metrics, and that the benchmark refuses to run, printing no
result, where there are no limitlearn sources. Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    mapped = [m for layer in layers["layers"] for m in layer["metrics"]]
    mapped += layers["tracing"]["metrics"]
    expect(sorted(mapped) == sorted(per_layer), "layers.json names exactly the per-layer metrics")
    expect(
        all(
            move["metric"] in e2e and set(move["workloads"]) <= set(workloads)
            for layer in layers["layers"]
            for move in layer["should_move"]
        ),
        "layers.json maps layers onto known end-to-end metrics and workloads",
    )

    for workload in workloads:
        digests = {}
        for trace, wanted in ((0, e2e), (1, per_layer)):
            proc = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code 0 (got {proc.returncode})")
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                expect(False, f"{label}: printed a result\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])
            digests[trace] = info["digest"]
            metrics = result["metrics"]
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result has exactly correct/attempted/failed/metrics",
            )
            expect(
                {k: v["unit"] for k, v in metrics.items()} == wanted,
                f"{label}: every named metric emitted with its unit",
            )
            expect(
                all(
                    isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                    for v in metrics.values()
                ),
                f"{label}: every value a finite number",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label}: checks_failed == 0 of {result['attempted']}",
            )
        expect(
            len(digests) == 2 and digests[0] == digests[1],
            f"{workload}: traced and untraced result digests identical",
        )

    bare = BENCH_DIR / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    proc = run(workloads[0], 0, cwd=bare, script=bare / "bench" / "run.py")
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        "without limitlearn sources: nonzero exit and no result",
    )
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
