#!/usr/bin/env python3
"""End-to-end benchmark of the PUF authentication service (bench/e2e/README.md).

Builds bench_e2e into build-e2e/ at the repository root, runs it and checks
its outputs. Run from the repository root.

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Prints every metric by name with its unit,
      then, as the last line, {"correct", "attempted", "failed", "metrics"}:
      the end-to-end metrics with --trace 0, the per-layer metrics with
      --trace 1.
  python3 bench/e2e/run.py --smoke
      Every workload at about 1/50 scale, untraced and traced, plus the
      lockstep-oracle check on the serve workloads; checks the metric names
      against BENCHMARK.json: every workload emits every end-to-end metric,
      and the workloads together emit every per-layer metric (a layer a
      workload does not run reports 0). Under a minute.
  python3 bench/e2e/run.py --repeat N [--out FILE]
      Every workload N times in alternating order (seed 1), then one traced
      run each; prints median and quartiles and writes the results record
      (default bench/e2e/BASELINE.json). Fails if outcome digests disagree.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures on first use, then lets CMake decide what is stale.

    One compile job: on hosts that throttle sustained multi-core load, a
    parallel build would slow the measured runs that follow it.
    """
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", "1"]
    if (BUILD / "CMakeCache.txt").exists():
        if subprocess.run(compile_, capture_output=True, text=True).returncode == 0:
            return BINARY.exists()
    # No build tree yet, or one a failed configure left behind.
    for cmd in (configure, compile_):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:] + proc.stderr[-4000:])
            log("bench_e2e build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def run_binary(workload, seed, seconds, trace=False, smoke=False):
    """One bench_e2e process; returns its result object or None."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--dir", str(work)]
    if trace:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(BUILD / "traces" / f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: no result (exit {proc.returncode})")
        return None
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def problems(result, traced):
    """Every reason the run's outputs are not correct, or []."""
    if result is None:
        return ["no result"]
    out = list(result["violations"])
    if result["exit_code"] != 0:
        out.append(f"exit code {result['exit_code']}")
    if result["attempted"] < 1:
        out.append("nothing attempted")
    if result["failed"] != 0:
        out.append(f"{result['failed']} operations failed")
    expected = spec()
    want = {m["name"] for m in expected["end_to_end"]}
    if set(result["end_to_end"]) != want:
        out.append(f"end-to-end metrics {sorted(result['end_to_end'])} != {sorted(want)}")
    for name, m in result["end_to_end"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                and m["value"] > 0):
            out.append(f"end-to-end metric {name} = {m['value']}")
    if traced:
        units = {m["name"]: m["unit"] for m in expected["per_layer"]}
        for name, m in result["per_layer"].items():
            if name not in units:
                out.append(f"per-layer metric {name} is not in BENCHMARK.json")
            elif m["unit"] != units[name]:
                out.append(f"per-layer metric {name} unit {m['unit']} != {units[name]}")
            if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                out.append(f"per-layer metric {name} = {m['value']}")
    return out


def per_layer(result):
    """Every per-layer metric of BENCHMARK.json; a layer the workload does
    not run reports 0."""
    return {m["name"]: result["per_layer"].get(m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in spec()["per_layer"]}


def print_metrics(workload, metrics):
    for name, m in sorted(metrics.items()):
        print(f"{workload:>10}  {name:<36} {m['value']:>16.6g} {m['unit']}")


def single_run(args):
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2
    if not build():
        return 1
    traced = args.trace == 1
    result = run_binary(args.workload, args.seed, args.seconds, trace=traced)
    if result is None:
        return 1
    bad = problems(result, traced)
    for p in bad:
        log(f"{args.workload}: {p}")
    metrics = per_layer(result) if traced else result["end_to_end"]
    print(f"{args.workload}: seed {args.seed}, {result['rounds']} rounds, digest "
          f"{result['digest']}, sizes {json.dumps(result['sizes'], sort_keys=True)}")
    print_metrics(args.workload, metrics)
    print(json.dumps({"correct": not bad, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not bad else 1


def smoke_mode():
    if not build():
        return 1
    failures = []
    emitted = set()
    for w in [w["name"] for w in spec()["workloads"]]:
        plain = run_binary(w, 1, 0.1, smoke=True)
        traced = run_binary(w, 1, 0.1, trace=True, smoke=True)
        emitted |= set(traced["per_layer"]) if traced else set()
        for label, result, is_traced in (("untraced", plain, False), ("traced", traced, True)):
            for p in problems(result, is_traced):
                failures.append(f"{w} {label}: {p}")
        if plain and traced and plain["digest"] != traced["digest"]:
            failures.append(f"{w}: traced digest {traced['digest']} != {plain['digest']}")
        if plain:
            print(f"{w:>10}: digest {plain['digest']}, {plain['rounds']} rounds, ok")
    missing = {m["name"] for m in spec()["per_layer"]} - emitted
    if missing:
        failures.append(f"per-layer metrics no workload emits: {sorted(missing)}")
    for f in failures:
        print("FAIL " + f)
    print("smoke " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def repeat_mode(args):
    if not build():
        return 1
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    runs = {w: [] for w in workloads}
    failures = []
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            result = run_binary(w, args.seed, seconds)
            failures += [f"{w} repeat {r}: {p}" for p in problems(result, False)]
            if result:
                runs[w].append(result)
                log(f"repeat {r} {w}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(result["end_to_end"].items())))
    record = {
        "benchmark": "bench/e2e",
        "statistic": "median with first and third quartiles over repeats",
        "per_run_statistic": "best round of the run: highest rate, shortest set-up",
        "repeats": args.repeat,
        "order": "alternating (forward, then reversed workload order)",
        "seed": args.seed,
        "seconds_per_run": seconds,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for w in workloads:
        results = runs[w]
        if not results:
            continue
        digests = sorted({res["digest"] for res in results})
        if len(digests) != 1:
            failures.append(f"{w}: outcome digests disagree across repeats: {digests}")
        traced = run_binary(w, args.seed, seconds, trace=True)
        failures += [f"{w} traced: {p}" for p in problems(traced, True)]
        if traced and traced["digest"] != results[0]["digest"]:
            failures.append(f"{w}: traced digest differs from the untraced runs")
        entry = {
            "digest": digests[0],
            "sizes": results[0]["sizes"],
            "rounds_per_run": [res["rounds"] for res in results],
            "end_to_end": {},
            "per_layer": per_layer(traced) if traced else {},
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [res["end_to_end"][name]["value"] for res in results]
            entry["end_to_end"][name] = {"unit": metric["unit"], **summarize(values)}
            s = entry["end_to_end"][name]
            print(f"{w:>10}  {name:<14} median {s['median']:>14.6g} {metric['unit']:<6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f}%")
        record["workloads"][w] = entry
    out = Path(args.out) if args.out else HERE / "BASELINE.json"
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=False)
        f.write("\n")
    for f_ in failures:
        print("FAIL " + f_)
    print(f"results record written to {out}")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    if not (ROOT / "BENCHMARK.json").exists():
        log("BENCHMARK.json not found at the repository root")
        return 2
    if args.smoke:
        return smoke_mode()
    if args.repeat:
        return repeat_mode(args)
    if not args.workload:
        parser.print_help(sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
