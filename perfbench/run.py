#!/usr/bin/env python3
"""Builds and runs the CERL end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ingest_skewed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
driver from source into .bench_build/ (or $CARGO_TARGET_DIR when set); later
runs only re-check the build. Scratch files go to a per-run directory under
.bench_tmp/ that is removed afterwards, and traced runs write Chrome
trace-event JSON to .bench_out/. The last line of standard output is the
driver's JSON result; the exit code is the driver's (0 = every check passed).
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_skewed", "query_hot", "restart_recover")
REFUSED_ENV = ("CERL_FAULTS", "CERL_FORCE_SCALAR")
# Per-run limit; the driver's own timeouts end a stuck run well before it.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("%s: %s" % (cmd[0], err))
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
        log("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
        return False
    return True


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen, 300):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", out, "-j", jobs, "--target"] +
                     list(targets), 840):
        return None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()

    for var in REFUSED_ENV:
        if var in os.environ:
            log("refusing to run with %s set in the environment" % var)
            return 2

    if args.self_test:
        out = build(["bench_lib_test"])
        if out is None:
            return 2
        return subprocess.call([os.path.join(out, "bench_lib_test")])

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    out = build(["cerl_perfbench"])
    if out is None:
        return 2
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    run_tmp = tempfile.mkdtemp(prefix="py-", dir=tmp_root)
    cmd = [os.path.join(out, "cerl_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-root", run_tmp,
           "--trace-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
    text = stdout.decode(errors="replace")
    lines = text.rstrip("\n").split("\n")
    # Everything but the result goes out first, so the JSON stays last.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        log("benchmark failed with exit code %d" % proc.returncode)
        return proc.returncode or 4
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
