#!/usr/bin/env python3
"""ADJ benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. On first use (or when any source changed)
it builds the benchmark with sbt from perfbench/build.sbt, which compiles the
repository's src/main/scala together with perfbench/src. It then starts one
JVM running perfbench.Main and relays its output; the last stdout line is the
JSON result. Build outputs, the reference cache and traces stay under
perfbench/.work (and sbt's target directories).

Extra flags, used by selftest.py: --tiny (a small graph, one timed query)
and --corrupt-reference (off-by-one reference checksum, so every query must
be counted as failed).
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time

START = time.monotonic()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")

RUN_LIMIT_S = 178       # the contract: a run ends within 180 s ...
BUILD_RUN_LIMIT_S = 890  # ... or 900 s when it has to build first
HEAP = "4g"

# The JDK 17 module opens that spark-submit normally adds.
JVM_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % m for m in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads, so an edit triggers a rebuild."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_limited(cmd, cwd, limit_s, stdout, env=None):
    """Runs cmd, killing it (and waiting for it) if it outlives limit_s."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr, text=True, env=env)
    try:
        out, _ = p.communicate(timeout=max(1.0, limit_s))
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        fail("timed out after %.0f s: %s" % (limit_s, " ".join(cmd[:3])), 3)
    return p.returncode, out


def classpath(deadline):
    """Builds if needed and returns the runtime classpath; True if it built."""
    build_dir = os.path.join(WORK, "build")
    stamp_file = os.path.join(build_dir, "stamp")
    cp_file = os.path.join(build_dir, "classpath")
    stamp = source_stamp()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read().strip(), False
    os.makedirs(build_dir, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    code, out = run_limited(cmd, BENCH, deadline - time.monotonic(), subprocess.PIPE)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out)
        fail("build failed (sbt exit %d)" % code)
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp, True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail("no program sources at src/main/scala/repro; run from a full checkout")
    spark_home = os.environ.get("SPARK_HOME", "")
    if not os.path.isdir(os.path.join(spark_home, "jars")):
        fail("SPARK_HOME must name a Spark distribution with a jars/ directory")

    cp, built = classpath(START + BUILD_RUN_LIMIT_S)
    limit = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - START)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java] + JVM_OPENS + [
        "-Xmx" + HEAP, "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
        "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties"),
        "-cp", cp, "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--work", WORK,
    ] + (["--tiny"] if a.tiny else []) + (["--corrupt-reference"] if a.corrupt_reference else [])
    # Spark's scratch space stays inside the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    code, out = run_limited(cmd, ROOT, limit, subprocess.PIPE, env)
    lines = out.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0 or not lines or not lines[-1].startswith("{\"correct\""):
        fail("benchmark JVM failed (exit %d)" % code, code or 4)


if __name__ == "__main__":
    main()
