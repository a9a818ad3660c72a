"""Self-check of the benchmark at minimal sizes (about half a minute).

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Fails (exit 1) unless every workload,
untraced and traced, ends with a result line that names every metric of
BENCHMARK.json with its unit and says the outputs were correct; and unless
a directory holding only BENCHMARK.json and the benchmark's own files makes
the benchmark exit nonzero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result_errors(spec: dict, workload: str, trace: int, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not a JSON object"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append(f"{where}: outputs not correct\n{proc.stderr[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted = {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        errors.append(f"{where}: failed = {result['failed']!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(wanted) - set(got)):
        errors.append(f"{where}: metric {name} missing")
    for name in sorted(set(got) - set(wanted)):
        errors.append(f"{where}: metric {name} not in BENCHMARK.json")
    for name in sorted(set(wanted) & set(got)):
        m = got[name]
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            errors.append(f"{where}: {name} has no numeric value")
        if m.get("unit") != wanted[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, expected {wanted[name]!r}")
    return errors


def bare_directory_errors(spec: dict) -> list:
    """Without src/ the benchmark must refuse to run."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["a directory without src/ still produced a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                   "--trace", str(trace), "--size", "small"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            errors += result_errors(spec, w["name"], trace, proc)
            print(f"{w['name']} --trace {trace}: {'ok' if proc.returncode == 0 else 'exit ' + str(proc.returncode)}",
                  flush=True)
    errors += bare_directory_errors(spec)
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
