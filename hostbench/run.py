#!/usr/bin/env python3
"""Build goptm's binaries from source and run the host-time benchmark.

Run from the root of a checkout:

    python3 hostbench/run.py --workload durable-mix --seed 1 --seconds 40 --trace 0

The Go build cache, the binaries and every temporary file stay under
.bench_build/ in the checkout. The last line of standard output is the
run's JSON result; a failed build or run exits non-zero without one.
"""
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
RUN_TIMEOUT = 178  # a run must end within three minutes
BUILD_TIMEOUT = 840  # the first build in a fresh checkout compiles everything


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # Go keeps its telemetry and env files under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
    })
    return env


def build():
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["GOPATH"], env["XDG_CONFIG_HOME"], BIN):
        os.makedirs(d, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "ptmserve"), "./cmd/ptmserve"]),
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "ptmbench"), "./cmd/ptmbench"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "hostbench"), "."]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
        if r.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def kill_group(p):
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already gone
    p.wait()


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("run.py: run from the root of a goptm checkout")
    build()
    cmd = [os.path.join(BIN, "hostbench"), "-bin", BIN, "-root", ROOT] + sys.argv[1:]
    # A process group of its own, so a timeout can stop the servers the
    # benchmark started as well.
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        kill_group(p)
        sys.exit("run.py: stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = p.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        kill_group(p)
        sys.exit("run.py: benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
