#!/usr/bin/env python3
"""TeraHAC benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wq-t05 --seed 1 --seconds 20 --trace 0

Builds the benchmark (perfbench/build.sbt: the repository's main sources plus
the benchmark program under perfbench/src) with sbt on first use, caching the
classpath in .bench_build/, then runs one workload in one JVM. Every line the JVM prints
is passed through; the last line of stdout is the JSON result. Exits non-zero,
without a result line, if the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")]
BUILD_FILES = [os.path.join(BENCH, "build.sbt"),
               os.path.join(BENCH, "project", "build.properties")]

BUILD_TIMEOUT_S = 600
# A run's timeout: set-up and a few clusterings, plus the measured seconds
# and the clustering that may overrun them.
RUN_MARGIN_S = 150
# ParallelGC: no concurrent collector threads competing with Spark's task
# threads for the four cores; clusterings ran about 10 % faster than on G1.
JVM_OPTS = ["-Xmx2g", "-XX:+UseParallelGC"]

# Spark 4 on JDK 17 needs these packages opened (the list spark-submit passes).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio",
         "java.base/java.util", "java.base/java.util.concurrent",
         "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    files = list(BUILD_FILES)
    for d in SOURCES:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names if n.endswith(".scala")]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """Compiles with sbt when the sources changed; returns the runtime classpath."""
    digest = source_digest()
    cp_file = os.path.join(BUILD, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            stamp, cp = fh.read().split("\n", 1)
        if stamp == digest:
            return cp.strip()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep sbt's own state (global base, ivy home, sockets, temp files) in the
    # checkout. SBT_OPTS from the environment carries the offline repository
    # settings; JAVA_TOOL_OPTIONS also reaches the JVMs sbt's launcher starts.
    opts = " ".join([os.environ.get("SBT_OPTS", ""),
                     "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
                     "-Dsbt.ivy.home=" + os.path.join(BUILD, "ivy"),
                     "-Dsbt.server.forcestart=false", "-Dsbt.boot.lock=false"])
    env = dict(os.environ, SBT_OPTS=opts.strip(), TMPDIR=tmp,
               JAVA_TOOL_OPTIONS=" ".join([os.environ.get("JAVA_TOOL_OPTIONS", ""),
                                           "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
                                           "-Djna.tmpdir=" + tmp]).strip())
    log_path = os.path.join(BUILD, "build.log")
    t0 = time.time()
    with open(log_path, "w") as log:
        try:
            p = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                                "export Runtime/fullClasspath"],
                               cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=log,
                               text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
    log_out = p.stdout
    with open(log_path, "a") as log:
        log.write(log_out)
    lines = [l for l in log_out.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or lines[-1].startswith("["):
        fail("build failed (exit %d); see %s" % (p.returncode, log_path))
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(digest + "\n" + cp + "\n")
    print("# built in %.1f s" % (time.time() - t0))
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    if not os.path.isdir(SOURCES[0]):
        fail("no program sources at %s: run from the root of a source checkout" % SOURCES[0])
    cp = classpath()

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    # -XX:-UsePerfData: no hsperfdata file outside the checkout.
    cmd = (["java"] + JVM_OPTS + ["-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp]
           + ["--add-opens=%s=ALL-UNNAMED" % p for p in OPENS]
           + ["-cp", cp, "repro.perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if a.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s-%d.json" % (a.workload, a.seed))]
    timeout = RUN_MARGIN_S + 2 * a.seconds
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    lines = p.stdout.splitlines()
    result = [l for l in lines if l.startswith('{"correct"')]
    for l in lines:
        if not l.startswith('{"correct"'):
            print(l)
    if p.returncode != 0 or len(result) != 1:
        fail("benchmark JVM exited with %d" % p.returncode)
    print(result[0], flush=True)


if __name__ == "__main__":
    main()
