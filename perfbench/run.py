#!/usr/bin/env python3
"""End-to-end benchmark of the NEBULA serving stack.

Run from the repository root:

    python3 perfbench/run.py --workload swap-mix --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (a CMake package over ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. Each workload then runs in its own fresh process.

--trace 0 prints the end-to-end metrics. Set-up time is the median of
SETUP_SAMPLES fresh processes, each measured from process start to the
first answered request. --trace 1 prints the per-layer metrics, each
with the end-to-end metric it should move, and writes the run's spans
next to the build as Chrome trace-event JSON.

Before the result the script prints a host record: steal share, load
average, nproc, the git revision and a digest of src/. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 1 when an output failed its check
(the result is still printed) and 2 when nothing could be measured.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ann-mlp3-wire", "swap-mix")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configure (once) and build @target; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no library sources next to perfbench/ (src/ missing)")
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("run.py: build step failed:", err)
            return False
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def child_env():
    """The environment without the library's trace/debug switches."""
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("NEBULA_TRACE") or key == "NEBULA_DEBUG":
            del env[key]
    return env


def run_child(args):
    """Run nebula_perf; returns (exit code, stdout lines) or None."""
    cmd = [os.path.join(build_dir(), "nebula_perf")] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("run.py: nebula_perf did not finish:", err)
        return None
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The last line as a result object, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def git_revision():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over src/ (paths and contents): identifies the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def measure(opts):
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds)]
    setup_samples = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ran = run_child(common + ["--trace", "0", "--setup-only"])
            result = parse_result(ran[1]) if ran else None
            if not ran or ran[0] != 0 or result is None:
                log("run.py: set-up run failed")
                return 2
            setup_samples.append(result["metrics"]["setup_s"]["value"])

    args = common + ["--trace", "1" if opts.trace else "0"]
    if opts.trace:
        args += ["--spans", os.path.join(
            build_dir(), "spans-%s-seed%d.json" % (opts.workload, opts.seed))]
    ran = run_child(args)
    result = parse_result(ran[1]) if ran else None
    if result is None or ran[0] not in (0, 1):
        log("run.py: the workload run produced no result")
        return 2
    code, lines = ran

    if not opts.trace:
        setup = result["metrics"]["setup_s"]
        setup_samples.append(setup["value"])
        setup["value"] = statistics.median(setup_samples)
        lines.insert(-1, "# setup_s: median of %d fresh processes %s"
                     % (len(setup_samples), setup_samples))

    host = {"git_rev": git_revision(), "src_digest": source_digest()}
    for line in lines[:-1]:
        if line.startswith("host "):
            host.update(json.loads(line[len("host "):]))
        else:
            print(line)
    print("host " + json.dumps(host, sort_keys=True))
    for name, metric in result["metrics"].items():
        print("%-42s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result), flush=True)
    return code


def self_test():
    if not build("perfbench_test"):
        return 2
    done = subprocess.run([os.path.join(build_dir(), "perfbench_test")],
                          env=child_env(), cwd=ROOT)
    return 0 if done.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if opts.workload is None:
        parser.error("--workload is required")
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build("nebula_perf"):
        return 2
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
