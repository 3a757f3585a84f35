#!/usr/bin/env python3
"""The SQM release benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload session_tcp --seed 7 --seconds 40 --trace 0

builds the program under test (src/) together with the benchmark into
.bench_build/perfbench on first use, runs one workload in its own process,
prints every metric with its unit, and prints as the last line of stdout one
JSON object with the keys correct, attempted, failed and metrics. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer split. The full run
record (toolchain, git sha, source digest, shape, sample counts, spreads)
goes to .bench_build/perfbench-out/, the Chrome trace of the traced run to
.bench_build/perfbench-out/traces/<workload>.json.

Other modes:
    --workload all       every workload, untraced and traced, as a table
    --check-transport    the tracing decorator's identity check

The exit code is 0 only when every release matched the plaintext reference.
See perfbench/README.md for the workloads, metrics and predictions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
TARGETS = ["sqm_perfbench", "perfbench_transport_check"]

WORKLOADS = ["pca_lockstep", "session_tcp"]
END_TO_END = ["releases_per_s", "release_s_p50", "cpu_s_per_release",
              "setup_s", "wire_bytes_per_release", "rounds_per_release",
              "peak_rss_mb"]
PER_LAYER = ["core.quantize_s", "sampling.skellam_s",
             "core.bgw_outside_eval_s", "core.noise_probe_s",
             "core.unattributed_s", "mpc.share_s", "mpc.mul_deal_s",
             "mpc.mul_recombine_s", "mpc.mul_s", "mpc.open_s",
             "mpc.eval_local_s", "net.send_s", "net.recv_wait_s",
             "net.mesh_up_s", "net.teardown_s", "net.messages_per_release",
             "net.input_bytes", "net.mul_bytes", "net.open_bytes",
             "dp.calibrate_s", "dp.account_s", "dp.epsilon",
             "proc.minor_faults_per_release", "proc.sys_s_per_release",
             "proc.ctx_switches_per_release", "obs.overhead_frac"]

BUILD_TIMEOUT_S = 850
# A run lasts --seconds plus the warm-up, two set-up batches and the
# reference checks; this margin covers all but the window.
RUN_MARGIN_S = 130


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: program sources not found at src/ "
            "(run from the root of a full checkout)")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "perfbench-build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(build_log, "ab") as sink:
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            code, _, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sink,
                             stderr=subprocess.STDOUT)
            if code != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                log(f"perfbench: configure failed, see {build_log}")
                sys.exit(2)
        cmd = ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
               "--target"] + TARGETS
        code, _, _ = run(cmd, max(1, deadline - time.monotonic()),
                         stdout=sink, stderr=subprocess.STDOUT)
    if code != 0:
        log(f"perfbench: build failed, see {build_log}")
        sys.exit(2)


def git_sha():
    # The checkout may not be a git repository; never search above it.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        code, out, _ = run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.decode().strip() if code == 0 else "unknown"


def source_digest():
    """sha256 over src/ (paths and contents): identifies the program built."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_chrome_trace(path):
    """Structural check of a Chrome trace-event file as Perfetto reads it."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        return f"unreadable: {error}"
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return "no traceEvents"
    for event in events:
        if not all(k in event for k in ("name", "ph", "pid", "tid")):
            return f"event without name/ph/pid/tid: {event}"
        if event["ph"] != "M" and not isinstance(event.get("ts"), (int, float)):
            return f"event without numeric ts: {event}"
        if event["ph"] == "X" and not isinstance(event.get("dur"), (int, float)):
            return f"complete event without dur: {event}"
    return ""


def run_workload(workload, seed, seconds, trace):
    """Runs one workload process; returns (record, exit code) or exits."""
    OUT.mkdir(parents=True, exist_ok=True)
    chrome = OUT / "traces" / f"{workload}.json"
    chrome.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "sqm_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--chrome-trace", str(chrome)]
    timeout = seconds + RUN_MARGIN_S
    try:
        code, out, err = run(cmd, timeout, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {timeout:g} s")
        sys.exit(1)
    lines = out.decode().strip().splitlines()
    if not lines:
        log(err.decode().strip())
        log(f"perfbench: {workload} exited with {code} and no record")
        sys.exit(1)
    record = json.loads(lines[-1])
    record["git_sha"] = git_sha()
    record["source_digest"] = source_digest()
    record["command"] = cmd
    if trace:
        problem = check_chrome_trace(chrome)
        record["traced"]["chrome_trace_check"] = problem or "ok"
        if problem:
            record["errors"].append(f"chrome trace: {problem}")
            record["correct"] = False
    suffix = "traced" if trace else "untraced"
    (OUT / f"{workload}-seed{seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record, code


def print_metrics(record, names, section):
    metrics = record[section]
    for name in names:
        metric = metrics[name]
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")


def single(args):
    build()
    record, code = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    names = PER_LAYER if args.trace else END_TO_END
    section = "per_layer" if args.trace else "end_to_end"
    missing = [n for n in names if n not in record[section]]
    if missing:
        log(f"perfbench: record lacks metrics {missing}")
        sys.exit(1)
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)} "
          f"build={record['build_type']} compiler={record['compiler']} "
          f"nproc={record['nproc']} sha={record['git_sha'][:12]}")
    print_metrics(record, names, section)
    untraced = record["untraced"]
    print(f"  release_s_p90 = {untraced['release_s_p90']:.6g} s over "
          f"{untraced['releases']} releases "
          f"({untraced['release_s_p90_samples_beyond']} beyond p90); "
          f"release_fail_ratio = {untraced['release_fail_ratio']:g}")
    for error in record["errors"]:
        print(f"  error: {error}")
    correct = bool(record["correct"]) and code == 0
    result = {"correct": correct, "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": {n: record[section][n] for n in names}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    build()
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            record, code = run_workload(workload, args.seed, args.seconds,
                                        trace)
            names = PER_LAYER if trace else END_TO_END
            section = "per_layer" if trace else "end_to_end"
            print(f"{workload} ({'traced' if trace else 'untraced'}): "
                  f"correct={record['correct']} "
                  f"attempted={record['attempted']} "
                  f"failed={record['failed']} release_fail_ratio="
                  f"{record['untraced']['release_fail_ratio']:g}")
            print_metrics(record, names, section)
            if trace:
                absent = record["absent_layers"]
                for name, why in absent.items():
                    print(f"    ({name} absent: {why})")
            if code != 0 or not record["correct"]:
                status = 1
    return status


def check_transport():
    build()
    code, _, _ = run([str(BUILD / "perfbench_transport_check")], 120)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-transport", action="store_true")
    args = parser.parse_args()
    if args.check_transport:
        return check_transport()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
