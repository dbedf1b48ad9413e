"""Benchmark entry point for stpca.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts a fresh worker process
(`bench/workloads.py`) with the BLAS thread count pinned, so peak RSS is the
worker's own and no workload warms another. With `--trace 1` two workers run
one pass each, untraced then traced: their wall-time difference is the tracing
overhead, and the traced worker's counts are checked against each other and
against the untraced MAE values (the tracer self-test).

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, where metrics are the `end_to_end` list of BENCHMARK.json when
untraced and its `per_layer` list when traced. The line before it is the full
record: environment, every pass, every failure message. Both also land in
bench/out/. See bench/README.md for the workloads and the predictions.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170.0
# set-up repetitions per run; set-up_s is their median
SETUPS = {"shift_small": 9, "pems_embed": 3, "pems_graph_cli": 3}
MODULES = ("training", "model", "graph", "pca", "dataset", "metrics", "transfer",
           "serialize", "pipeline", "cli")


def fail(message, code=2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def git_state():
    """Commit and dirty flag, read only when the checkout is itself a repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    git = ["git", f"--git-dir={os.path.join(ROOT, '.git')}", f"--work-tree={ROOT}"]
    try:
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                               text=True, timeout=30, check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


def run_worker(args, trace, setups, deadline, tag):
    """One worker process; returns its parsed result and its work directory."""
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{tag}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--setups", str(setups), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"{args.workload} worker exceeded the time limit", 1)
    if proc.returncode != 0:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"{args.workload} worker exited with code {proc.returncode}", 1)
    return json.loads(stdout.strip().splitlines()[-1]), work_dir


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(result):
    passes = result["passes"]
    fit_s = median_of(passes, "fit_s")
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "wall_s": median_of(passes, "wall_s"),
        "fit_s": fit_s,
        "transfer_s": median_of(passes, "transfer_s"),
        "peak_rss_mb": result["peak_rss_mb"],
        "mae_test": median_of(passes, "mae_test"),
        # detail only: no training happens on pems_embed
        "train_windows_per_s": median_of(passes, "train_windows") / fit_s,
    }


def per_layer(traced, untraced):
    """Flatten span statistics and counters into `module.function.stat` values."""
    info = traced["trace_stats"]
    spans, counters = info["spans"], info["counters"]
    flat = {}
    for name, entry in spans.items():
        for stat in ("calls", "s", "self_s", "ms_p50", "ms_p99"):
            flat[f"{name}.{stat}"] = entry[stat]
    for key, value in counters.items():
        flat[key] = value
    ingest = spans.get("dataset.ingest_csv")
    if ingest:
        flat["dataset.ingest_csv.cells_per_s"] = counters["dataset.ingest_csv.cells"] / ingest["s"]
    if counters.get("training.clip_gradients.steps"):
        flat["training.clip_gradients.clipped_fraction"] = (
            counters["training.clip_gradients.clipped"]
            / counters["training.clip_gradients.steps"])
    if spans.get("training.fit"):
        flat["training.fit.windows_per_s"] = (counters["training.fit.windows"]
                                              / spans["training.fit"]["s"])
    wall = info["pass_wall_s"]
    for module in MODULES:
        self_s = sum(e["self_s"] for n, e in spans.items()
                     if n.startswith(module + ".") and e["phase"] == "pass1")
        flat[f"{module}.self_share"] = self_s / wall
    flat["trace.overhead_s"] = traced["passes"][0]["wall_s"] - untraced["passes"][0]["wall_s"]
    flat["trace.spans"] = info["span_count"]
    return flat


def self_test(traced, untraced):
    """Exact-count checks on the traced worker: [(ok, message)] and the counts."""
    spans = traced["trace_stats"]["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    counts = {"backward_calls": calls("training.backward"),
              "train_forward_calls": calls("model.forward.train"),
              "expected_steps": int(traced["trace_stats"]["counters"].get(
                  "training.fit.expected_steps", 0)),
              "sym_eig_calls": calls("pca.sym_eig"),
              "projection_fits": sum(p["projection_fits"] for p in traced["passes"])}
    checks = [
        (counts["backward_calls"] == counts["train_forward_calls"],
         "self-test: backward calls != train forward calls"),
        (counts["train_forward_calls"] == counts["expected_steps"],
         "self-test: train forward calls != steps implied by the fit reports"),
        (counts["sym_eig_calls"] == counts["projection_fits"],
         "self-test: sym_eig calls != projection fits"),
        (traced["passes"][0]["mae"] == untraced["passes"][0]["mae"],
         "self-test: traced and untraced MAE values differ"),
    ]
    return checks, counts


def top_self(traced):
    spans = traced["trace_stats"]["spans"]
    ranked = sorted(((e["self_s"], n) for n, e in spans.items() if e["phase"] == "pass1"),
                    reverse=True)
    return [[n, s] for s, n in ranked[:8]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="stpca benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "stpca", "__init__.py")):
        fail("src/stpca not found: run from the root of an stpca checkout")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found: run from the root of an stpca checkout")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git": git_state(), "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
              "blas_threads": BLAS_THREADS, "loadavg_start": os.getloadavg()}
    if args.trace:
        untraced, untraced_dir = run_worker(args, 0, 1, deadline, "untraced")
        traced, work_dir = run_worker(args, 1, 1, deadline, "traced")
        shutil.rmtree(untraced_dir, ignore_errors=True)
        checks, counts = self_test(traced, untraced)
        failures = (untraced["failures"] + traced["failures"]
                    + [message for ok, message in checks if not ok])
        attempted = untraced["attempted"] + traced["attempted"] + len(checks)
        values = per_layer(traced, untraced)
        worker = traced
        record.update(self_test=counts, top_self_s=top_self(traced),
                      passes=traced["passes"], untraced_passes=untraced["passes"])
        wanted = spec["per_layer"]
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        shutil.move(os.path.join(work_dir, "spans.jsonl"), spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        worker, work_dir = run_worker(args, 0, SETUPS[args.workload], deadline, "run")
        failures, attempted = worker["failures"], worker["attempted"]
        values = end_to_end(worker)
        record.update(setup_s=worker["setup_s"], raw_setup_s=worker["raw_setup_s"],
                      passes=worker["passes"])
        wanted = spec["end_to_end"]
    shutil.rmtree(work_dir, ignore_errors=True)

    record.update(numpy=worker["numpy"], blas=worker["blas"],
                  speed_factor=worker["speed_factor"], probes=worker["probes"],
                  peak_rss_mb=worker["peak_rss_mb"], all_values=values,
                  failures=failures, loadavg_end=os.getloadavg())
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
    record["result"] = summary
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
