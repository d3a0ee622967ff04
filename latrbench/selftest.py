#!/usr/bin/env python3
"""The benchmark's own test. From the repository root:

    python3 latrbench/selftest.py

Builds the harness through run.py, then checks that

  * every workload runs clean, with exactly the metric names and units
    BENCHMARK.json declares, under --trace 0 and --trace 1;
  * two invocations with one seed agree on every digest and simulated
    metric, and another seed changes the serve trace and fuzz scripts;
  * exactly the fuzz pool scripts the fuzz workload excludes diverge
    across policies on this build;
  * fuzz with LATR's sweep broken (--inject-skip-latr-sweep) fails:
    error_rate > 0 and a nonzero exit;
  * the argument parser rejects bad input with a message and exit 2;
  * no harness source assigns the parallel-engine or fast-path knobs.

Exits 0 when every check passes. Takes about two minutes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "latrbench", "latrbench")
WORKLOADS = ("serve", "lazycache", "big_numa", "fuzz")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(*args):
    return subprocess.run([BINARY] + list(args), capture_output=True,
                          text=True, cwd=ROOT)


def result(proc):
    """The final JSON line of a run, or None."""
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def sim_lines(proc):
    """Output lines that must repeat exactly for one seed."""
    keep = re.compile(r"^(digest |rounds .* sim\.events |\s+(sim_p99_us|"
                      r"ipi_reduction|hit_ratio) )")
    out = []
    for line in proc.stdout.splitlines():
        if keep.match(line):
            # The round count depends on host speed; sim.events does not.
            out.append(re.sub(r"^rounds .*; ", "", line))
    return out


def exact_layers(res):
    """Per-layer metrics that are exact: counts and simulated values."""
    return {k: v["value"] for k, v in res["metrics"].items()
            if (v["unit"] == "count" or v["unit"].startswith("sim_"))
            and not k.endswith(".n")}


def main():
    build = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--help"], capture_output=True, text=True)
    check(build.returncode == 0 and os.path.isfile(BINARY),
          "harness builds")
    if failures:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the four workloads")

    for w in WORKLOADS:
        first = None
        for trace, names in (("0", e2e), ("1", layers)):
            proc = run("--workload", w, "--seed", "7", "--seconds", "1",
                       "--trace", trace)
            res = result(proc)
            check(proc.returncode == 0 and res is not None and
                  res["correct"] and res["failed"] == 0 and
                  res["attempted"] > 0,
                  "%s --trace %s runs clean" % (w, trace))
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == names,
                  "%s --trace %s prints exactly the declared metrics"
                  % (w, trace))
            if trace == "0":
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      "%s end-to-end metrics are nonzero" % w)
                first = proc
            else:
                again = result(run("--workload", w, "--seed", "7",
                                   "--seconds", "1", "--trace", "1"))
                check(again is not None and
                      exact_layers(again) == exact_layers(res),
                      "%s per-layer counts repeat for one seed" % w)
        if first is None:
            continue
        second = run("--workload", w, "--seed", "7", "--seconds", "1")
        check(sim_lines(first) and sim_lines(first) == sim_lines(second),
              "%s digests and sim metrics repeat for one seed" % w)
        if w in ("serve", "fuzz"):
            other = run("--workload", w, "--seed", "8", "--seconds", "1")
            check(sim_lines(other) != sim_lines(first),
                  "%s inputs change with the seed" % w)

    pool = run("--verify-fuzz-pool")
    check(pool.returncode == 0, "fuzz pool: " +
          (pool.stdout.strip().splitlines() or ["no output"])[-1])

    proc = run("--workload", "fuzz", "--seconds", "1",
               "--inject-skip-latr-sweep")
    res = result(proc)
    rate = re.search(r"^\s+error_rate\s+(\S+)", proc.stdout, re.M)
    check(proc.returncode != 0 and res is not None and res["failed"] > 0
          and rate is not None and float(rate.group(1)) > 0,
          "fuzz with a broken LATR sweep fails (error_rate %s)"
          % (rate.group(1) if rate else "missing"))

    bad = [
        ["--workload", "serve", "--bogus", "1"],
        ["--workload", "serve", "--seed", "abc"],
        ["--workload", "serve", "--seed", "-1"],
        ["--workload", "serve", "--seed", "1x"],
        ["--workload", "serve", "--seconds", "0"],
        ["--workload", "serve", "--seconds", "601"],
        ["--workload", "serve", "--trace", "2"],
        ["--workload", "webserver"],
        ["--seed", "1"],
        ["--workload", "serve", "--workload", "fuzz"],
        ["--workload", "serve", "--inject-skip-latr-sweep"],
        ["--workload", "serve", "--seed"],
        ["serve"],
    ]
    for args in bad:
        proc = run(*args)
        check(proc.returncode == 2 and proc.stderr.startswith("latrbench: ")
              and result(proc) is None,
              "rejects " + " ".join(args))

    knobs = re.compile(r"\.(simThreads|pinSimThreads|noFastpath)\s*=[^=]")
    for name in sorted(os.listdir(HERE)):
        if name.endswith((".cc", ".hh")):
            with open(os.path.join(HERE, name)) as f:
                check(not knobs.search(f.read()),
                      name + " leaves the engine knobs alone")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
