#!/usr/bin/env python3
"""perfbench: time to first step, steady MLUP/s and farm throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-reference

Each repetition of a workload is a fresh `perfbench.exe rep` process with
its own empty TMPDIR and a pinned environment, so set-up is the cold-start
cost a `pfgen` user pays.  Repetitions run until the next one would end
after --seconds (at least one).  After timing stops, every final state is
checked against its reference digest.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SCRATCH = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Seed the stored references were made with.
DEFAULT_SEED = 1
# A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0
# --self-test and --make-reference run many children and are not timed.
MAINTENANCE_BUDGET_S = 3600.0

# domains: the PFGEN_DOMAINS the workload pins.  jit: the workload runs
# kernels on the native JIT tier, so a run on the tape fallback is invalid.
# keyed: what reference.json keys the workload's references on.
#   "any_seed": the seed only translates the input along a periodic axis
#     the kernels do not depend on, so one digest covers every seed;
#   "shift": the final state depends on the translation (P2's noise is
#     keyed on the global cell), so there is one digest per translation;
#   "seed": one set of job digests per seed; other seeds are checked
#     against Scheduler.run_solo after timing stops.
WORKLOADS = {
    "p1-jit-steady": {"domains": 1, "farm": False, "jit": True, "keyed": "any_seed"},
    "p2-cold-start": {"domains": 1, "farm": False, "jit": False, "keyed": "shift"},
    "eutectic-4rank-ckpt": {"domains": 1, "farm": False, "jit": False, "keyed": "any_seed"},
    "farm-mix": {"domains": 1, "farm": True, "jit": True, "keyed": "seed"},
}

# Printed with every run but not declared in BENCHMARK.json.
INFO_UNITS = {
    "step_norm_p90": "sweeps",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "mlups": "MLUP/s",
    "wall_s": "s",
    "jobs_per_s": "jobs/s",
    "job_latency_p50_s": "s",
    "job_latency_p75_s": "s",
    "failed_frac": "ratio",
}

T_START = time.monotonic()


class RunFailed(Exception):
    pass


def log(*a):
    print(*a, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"perfbench: {need} not found under {ROOT}; run from a full checkout")
            sys.exit(2)
    if shutil.which("dune") is None:
        log("perfbench: dune not found on PATH")
        sys.exit(2)
    # DUNE_CACHE=disabled: the shared build cache lives outside the checkout
    p = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        cwd=ROOT,
        env={**os.environ, "DUNE_CACHE": "disabled"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if p.returncode != 0 or not os.path.exists(EXE):
        log(p.stdout)
        log("perfbench: build failed")
        sys.exit(2)


# ---------------------------------------------------------------- children


def child(mode, workload, seed=None, trace=False, every_shift=False):
    """Run one perfbench.exe process; return its JSON result or None."""
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = os.path.join(SCRATCH, f"tmp-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(tmp)
    env = dict(os.environ)
    for var in ("PFGEN_VM_BACKEND", "PFGEN_JIT_NATIVE", "OCAMLRUNPARAM"):
        env.pop(var, None)
    env["PFGEN_DOMAINS"] = str(WORKLOADS[workload]["domains"])
    env["TMPDIR"] = tmp
    cmd = [EXE, mode, "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if every_shift:
        cmd.append("--every-shift")
    timeout = max(5.0, RUN_BUDGET_S - (time.monotonic() - T_START))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {' '.join(cmd[1:])} timed out after {timeout:.0f} s")
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        log(err.strip())
        log(f"perfbench: {' '.join(cmd[1:])} exited with {proc.returncode}")
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# ---------------------------------------------------------------- references


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def stored_reference(workload, seed, shift, stored):
    """The stored reference for a run of `workload` at `seed`, whose
    repetitions report `shift` (a simulation's translation), or None."""
    entry = stored[workload]
    keyed = WORKLOADS[workload]["keyed"]
    if keyed == "any_seed":
        return entry["any_seed"]
    if keyed == "shift":
        return entry["shifts"][str(shift)]
    return entry["seeds"].get(str(seed))


def reference_for(workload, seed, stored, results):
    """The stored reference, else (farm at an unstored seed) a
    `perfbench.exe reference` run, which reruns every job through
    Scheduler.run_solo after timing has stopped."""
    shift = next((r["shift"] for r in results if r is not None and "shift" in r), None)
    if shift is None and WORKLOADS[workload]["keyed"] == "shift":
        return None  # no repetition completed; each counts as failed
    ref = stored_reference(workload, seed, shift, stored)
    if ref is None:
        ref = child("reference", workload, seed)
        if ref is None:
            raise RunFailed(f"reference run of {workload} seed {seed} failed")
    return ref


def flip_bit(hexdigest):
    """The digest with its lowest bit flipped (the self-test's perturbation)."""
    width = len(hexdigest)
    return format(int(hexdigest, 16) ^ 1, f"0{width}x")


def perturbed(ref):
    ref = json.loads(json.dumps(ref))
    if "jobs" in ref:
        first = sorted(ref["jobs"], key=int)[0]
        ref["jobs"][first] = flip_bit(ref["jobs"][first])
    else:
        ref["digest"] = flip_bit(ref["digest"])
    return ref


def failures(result, ref):
    """(attempted, failed) of one repetition against its reference."""
    if ref is not None and "jobs" in ref:
        expected = ref["jobs"]
        if result is None:
            return len(expected), len(expected)
        got = {str(j["id"]): j["digest"] for j in result["jobs"]}
        bad = sum(1 for jid, d in expected.items() if got.get(jid) != d)
        if result.get("fidelity") is False:
            bad = len(expected)
        return len(expected), bad
    if result is None or ref is None:
        return 1, 1
    ok = result["digest"] == ref["digest"] and result.get("diag", "") == ref.get("diag", "")
    if result.get("fidelity") is False:
        ok = False
    return 1, 0 if ok else 1


def check_native(results, workload):
    """A jit workload on the tape fallback measures another program."""
    if not WORKLOADS[workload]["jit"]:
        return
    for r in results:
        if r is None:
            continue
        jit = r["provenance"]["jit"]
        if not jit["native_available"] or jit["native_programs"] < jit["programs"] or jit["programs"] == 0:
            log(f"perfbench: INVALID run of {workload}: native JIT tier not in use ({jit['notes']})")
            sys.exit(3)


# ---------------------------------------------------------------- metrics


def quantile(values, q):
    """The q-quantile (0.75 or 0.9), interpolated within the data: a farm
    run has only a few repetitions, and the exclusive method would
    extrapolate past the slowest one."""
    if len(values) == 1:
        return values[0]
    n = {0.75: 4, 0.9: 10}[q]
    return statistics.quantiles(values, n=n, method="inclusive")[round(q * n) - 1]


# Neighbours on the shared host slow single-thread code by up to ~2x, in
# stretches from a fraction of a second to minutes, and the share of slow
# steps ranges from 0 to 100% between runs, so every statistic of the raw
# step times moves with the host.  perfbench.exe times a fixed reference
# sweep before each step; the sweep slows with the host, so step time over
# sweep time (unit: sweeps) does not.  Gated: its median over the steps,
# and the total step time over the total sweep time, which also carries
# the cost of occasional steps (checkpoints).  The raw step times and
# mlups, the mean rate, are printed but not gated (README.md).


def sim_metrics(reps):
    walls = [r["wall_s"] for r in reps]
    steps = [x for r in reps for x in r["step_ms"]]
    sweeps = [x for r in reps for x in r["sweep_ms"]]
    norm = [s / c for s, c in zip(steps, sweeps)]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(walls),
        # cells x steps / time over steps 2..N, pooled over repetitions
        "mlups": reps[0]["cells"] * len(steps) / (sum(steps) * 1e-3) / 1e6,
        "step_norm_p50": statistics.median(norm),
        "step_norm_p90": quantile(norm, 0.9),
        "step_norm_total": sum(steps) / sum(sweeps),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": quantile(steps, 0.9),
        # a simulation run is the job a `pfgen simulate` user waits for
        "jobs_per_s": len(reps) / sum(walls),
        "job_latency_p50_s": statistics.median(walls),
        "job_latency_p75_s": quantile(walls, 0.75),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def farm_metrics(reps):
    lat = [j["latency_s"] for r in reps for j in r["jobs"]]
    # a farm repetition has no per-step clock: its step time is the
    # makespan spread over every job step of the batch
    job_steps = [sum(j["steps"] for j in r["jobs"]) for r in reps]
    step_ms = [r["makespan_s"] * 1e3 / n for r, n in zip(reps, job_steps)]
    # each repetition's sweep time is the mean of the sweeps timed during it
    sweep = [statistics.mean(r["sweep_ms"]) for r in reps]
    norm = [s / c for s, c in zip(step_ms, sweep)]
    updates = sum(j["cells"] * j["steps"] for j in reps[0]["jobs"])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        # every job's lattice updates over the batch's makespan
        "mlups": statistics.median(updates / r["makespan_s"] / 1e6 for r in reps),
        "step_norm_p50": statistics.median(norm),
        "step_norm_p90": quantile(norm, 0.9),
        "step_norm_total": sum(r["makespan_s"] * 1e3 for r in reps) / sum(n * c for n, c in zip(job_steps, sweep)),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": quantile(step_ms, 0.9),
        "jobs_per_s": statistics.median(len(r["jobs"]) / r["makespan_s"] for r in reps),
        "job_latency_p50_s": statistics.median(lat),
        "job_latency_p75_s": quantile(lat, 0.75),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


# ---------------------------------------------------------------- provenance


def source_digest():
    """SHA-256 over the sources the benchmark builds (checkouts have no .git)."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        ]
        for f in sorted(files):
            if f.endswith((".ml", ".mli", "dune", "dune-project", ".py", ".json")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return p.stdout.strip() or None


def provenance(results, workload):
    ocaml = next((r["provenance"] for r in results if r is not None), {})
    return {
        "workload": workload,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "ocaml_version": ocaml.get("ocaml_version"),
        "nproc": os.cpu_count(),
        "domains": WORKLOADS[workload]["domains"],
        "jit_native_available": ocaml.get("jit", {}).get("native_available"),
        "jit_native_notes": ocaml.get("jit", {}).get("notes"),
    }


# ---------------------------------------------------------------- runs


def measure(workload, seed, seconds):
    """Repetitions until the next would end after `seconds` (at least one)."""
    reps = []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(child("rep", workload, seed))
        last = time.monotonic() - t
        if reps[-1] is None or time.monotonic() - t0 + last > seconds:
            return reps


def score(results, ref):
    attempted = failed = 0
    for r in results:
        a, f = failures(r, ref)
        attempted += a
        failed += f
    return attempted, failed


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")


def run_e2e(workload, seed, seconds, stored):
    reps = measure(workload, seed, seconds)
    check_native(reps, workload)
    ref = reference_for(workload, seed, stored, reps)
    attempted, failed = score(reps, ref)
    good = [r for r in reps if r is not None]
    if not good:
        raise RunFailed(f"no repetition of {workload} completed")
    measured = farm_metrics(good) if WORKLOADS[workload]["farm"] else sim_metrics(good)
    print(f"perfbench {workload} seed {seed}: {len(reps)} repetition(s)")
    print("provenance " + json.dumps(provenance(reps, workload)))
    gated = declared("end_to_end")
    print_metrics({k: v for k, v in measured.items() if k in gated}, gated)
    print("  not gated (raw step times, mean rates and whole-run times move with the host's load; README.md):")
    print_metrics({**{k: v for k, v in measured.items() if k not in gated}, "failed_frac": failed / attempted}, INFO_UNITS)
    return reps, ref, attempted, failed, {k: v for k, v in measured.items() if k in gated}


def declared(kind):
    """{name: unit} of the `end_to_end` or `per_layer` metrics BENCHMARK.json declares."""
    with open(BENCHMARK) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_traced(workload, seed, stored):
    plain = child("rep", workload, seed)
    traced = child("rep", workload, seed, trace=True)
    check_native([plain, traced], workload)
    ref = reference_for(workload, seed, stored, [plain])
    attempted, failed = score([plain, traced], ref)
    if plain is None or traced is None:
        raise RunFailed(f"traced run of {workload} did not complete")
    # a layer the workload never calls reads 0
    metrics = {name: traced["metrics"].get(name, 0) for name in declared("per_layer")}
    metrics["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    unknown = set(traced["metrics"]) - set(metrics)
    if unknown:
        raise RunFailed(f"perfbench.exe reports undeclared metrics {sorted(unknown)}")
    print(f"perfbench {workload} seed {seed}: traced replay")
    print("provenance " + json.dumps(provenance([plain, traced], workload)))
    if WORKLOADS[workload]["farm"]:
        same = [j["digest"] for j in traced["jobs"]] == [j["digest"] for j in plain["jobs"]]
        print(f"  fidelity: traced batch final states == untraced: {same}; "
              f"crash-job replay restarts == farm restarts: {traced['fidelity']}")
    else:
        print(f"  fidelity: stage-by-stage codegen == Genkernels.generate: {traced['fidelity']}; "
              f"replay final state == untraced run: {traced['digest'] == plain['digest']}")
    print("  self time by layer (s): " + ", ".join(f"{k} {v:.4g}" for k, v in traced["self_s"].items()))
    for k in traced.get("kernels", []):
        print(
            f"  kernel {k['kernel']:18s} measured {k['measured_ns_per_cell']:10.1f} ns/cell | "
            f"predicted (ECM, Skylake 8174) {k['predicted_ecm_ns_per_cell']:7.2f} ns/cell | "
            f"computed {k['computed_flops_per_cell']} flops/cell, "
            f"{k['computed_bytes_per_cell']:.0f} bytes/cell"
        )
    print_metrics(metrics, declared("per_layer"))
    return attempted, failed, metrics


def result_line(correct, attempted, failed, metrics, kind):
    units = declared(kind)
    if set(metrics) != set(units):
        raise RunFailed(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))


# ---------------------------------------------------------------- modes


def self_test(stored):
    """One-bit perturbed references must raise failed_frac; the seed must
    act on a simulation only through its translation, as reference.json's
    keys assume."""
    ok = True
    seed = DEFAULT_SEED + 1
    for workload in WORKLOADS:
        reps, ref, attempted, failed, _ = run_e2e(workload, DEFAULT_SEED, 1, stored)
        bad_attempted, bad_failed = score(reps, perturbed(ref))
        line = (f"self-test {workload}: failed_frac {failed / attempted:.3f} against the reference, "
                f"{bad_failed / bad_attempted:.3f} against the one-bit perturbed reference")
        print(line)
        ok &= failed == 0 and bad_failed > 0
        if not WORKLOADS[workload]["farm"]:
            live = child("reference", workload, seed)
            want = live and stored_reference(workload, seed, live["shift"], stored)
            same = live is not None and live["digest"] == want["digest"] and live["diag"] == want["diag"]
            print(f"self-test {workload}: reference at seed {seed} (translated input) "
                  f"{'equals' if same else 'DIFFERS FROM'} the stored digest")
            ok &= same
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def make_reference():
    stored = {}
    for workload, w in WORKLOADS.items():
        if w["keyed"] == "shift":
            ref = child("reference", workload, every_shift=True)
        else:
            ref = child("reference", workload, DEFAULT_SEED)
        if ref is None:
            raise RunFailed(f"reference run of {workload} failed")
        for key in ("mode", "workload", "seed", "shift"):
            ref.pop(key, None)
        if w["keyed"] == "any_seed":
            stored[workload] = {"any_seed": ref}
        elif w["keyed"] == "shift":
            stored[workload] = ref
        else:
            stored[workload] = {"seeds": {str(DEFAULT_SEED): ref}}
    with open(REFERENCE, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main():
    global RUN_BUDGET_S
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test or args.make_reference:
        RUN_BUDGET_S = MAINTENANCE_BUDGET_S
    try:
        if args.make_reference:
            return make_reference()
        stored = load_reference()
        if args.self_test:
            return self_test(stored)
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            attempted, failed, metrics = run_traced(args.workload, args.seed, stored)
            kind = "per_layer"
        else:
            _, _, attempted, failed, metrics = run_e2e(args.workload, args.seed, args.seconds, stored)
            kind = "end_to_end"
        result_line(failed == 0, attempted, failed, metrics, kind)
        return 0
    except RunFailed as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
