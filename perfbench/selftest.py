#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the measuring program the way run.py does, then checks, for every
workload at self-test scale (tiny inputs, same code paths):

  * the same seed writes the same input files, another seed other files;
  * two traced runs with one seed report identical count metrics;
  * the traced run's Chrome trace is well-formed JSON whose begin and end
    events balance on every track, with a named track per recording
    thread (the main thread, and for server-churn each client thread);
  * an untraced run prints exactly BENCHMARK.json's end-to-end metrics
    and a traced run exactly its per-layer metrics, with their units;
  * a run whose answer is deliberately corrupted fails its output check:
    nonzero exit, "correct": false and "failed" > 0.

Exits 0 when every check passes; prints each failure otherwise.
"""
import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)

SELFTEST = os.path.join(bench.BUILD, "selftest")
COUNT_UNITS = ("count", "bytes")
# Counted, but set by how many queries fit while the writer streams.
TIMING_DEPENDENT = ("dynamic.queries",)

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def program(prog, *args):
    p = subprocess.run([prog] + list(args), cwd=bench.ROOT,
                       stdout=subprocess.PIPE, text=True, timeout=120)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return p.returncode, result


def gen(prog, workload, seed, name):
    d = os.path.join(SELFTEST, name)
    os.makedirs(os.path.join(bench.ROOT, d), exist_ok=True)
    rc, _ = program(prog, "gen", f"--workload={workload}", f"--seed={seed}",
                    f"--dir={d}", "--small=1")
    check(rc == 0, f"{workload}: gen seed {seed} exited {rc}")
    return d


def same_files(a, b):
    a, b = os.path.join(bench.ROOT, a), os.path.join(bench.ROOT, b)
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
        for f in names)


def measure(prog, workload, seed, d, trace, *extra):
    trace_file = os.path.join(d, "trace.json")
    return program(prog, "run", f"--workload={workload}", f"--seed={seed}",
                   f"--dir={d}", "--small=1", "--seconds=0.5",
                   f"--trace={trace}", f"--trace-file={trace_file}", *extra)


def check_trace(workload, path):
    try:
        with open(os.path.join(bench.ROOT, path)) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        check(False, f"{workload}: trace is not readable JSON ({e})")
        return
    names, stacks, last_ts = {}, {}, {}
    for ev in doc.get("traceEvents", []):
        key = (ev.get("pid"), ev.get("tid"))
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[key] = ev["args"]["name"]
        elif ev.get("ph") in ("B", "E"):
            ts = ev["ts"]
            check(ts >= last_ts.get(key, ts),
                  f"{workload}: trace events out of order on {key}")
            last_ts[key] = ts
            stack = stacks.setdefault(key, [])
            if ev["ph"] == "B":
                stack.append(ev["name"])
            else:
                check(bool(stack), f"{workload}: unmatched end on {key}")
                if stack:
                    stack.pop()
    check(bool(stacks), f"{workload}: trace has no spans")
    for key, stack in stacks.items():
        check(not stack, f"{workload}: {len(stack)} spans left open on {key}")
        check(key in names, f"{workload}: track {key} has no thread name")
    tracks = set(names.values())
    check("main" in tracks, f"{workload}: no main-thread track")
    if workload == "server-churn":
        for client in ("writer client", "reader client"):
            check(any(t.startswith(client) for t in tracks),
                  f"{workload}: no {client} track")


def main():
    prog = bench.build()
    if prog is None:
        print("FAIL: build failed")
        return 1
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shutil.rmtree(os.path.join(bench.ROOT, SELFTEST), ignore_errors=True)

    for workload in bench.WORKLOADS:
        print(f"== {workload}")
        a = gen(prog, workload, 1, f"{workload}-a")
        b = gen(prog, workload, 1, f"{workload}-b")
        c = gen(prog, workload, 2, f"{workload}-c")
        check(same_files(a, b), f"{workload}: seed 1 inputs differ")
        check(not same_files(a, c), f"{workload}: seeds 1 and 2 give the "
              "same inputs")

        rc, plain = measure(prog, workload, 1, a, 0)
        check(rc == 0 and plain and plain["correct"],
              f"{workload}: untraced run failed (exit {rc})")
        if plain:
            got = {k: v["unit"] for k, v in plain["metrics"].items()}
            check(got == e2e, f"{workload}: end-to-end metrics {got} "
                  f"differ from BENCHMARK.json {e2e}")

        counts = []
        for d in (a, b):
            rc, traced = measure(prog, workload, 1, d, 1)
            check(rc == 0 and traced and traced["correct"],
                  f"{workload}: traced run failed (exit {rc})")
            if not traced:
                continue
            got = {k: v["unit"] for k, v in traced["metrics"].items()}
            check(got == layers, f"{workload}: per-layer metrics differ "
                  "from BENCHMARK.json")
            counts.append({k: v["value"] for k, v in traced["metrics"].items()
                           if v["unit"] in COUNT_UNITS
                           and k not in TIMING_DEPENDENT})
            check_trace(workload, os.path.join(d, "trace.json"))
        check(len(counts) == 2 and counts[0] == counts[1],
              f"{workload}: count metrics differ between two runs of one "
              f"seed: {counts}")
        check(len(counts) == 2 and any(counts[0].values()),
              f"{workload}: no count metric is nonzero")

        rc, bad = measure(prog, workload, 1, a, 0, "--corrupt=1")
        check(rc != 0 and bad is not None and not bad["correct"]
              and bad["failed"] > 0,
              f"{workload}: a corrupted answer passed the output checks "
              f"(exit {rc}, result {bad})")

    shutil.rmtree(os.path.join(bench.ROOT, SELFTEST), ignore_errors=True)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
