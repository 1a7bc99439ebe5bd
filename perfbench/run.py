#!/usr/bin/env python3
"""Two-clock random-walk benchmark on the lj analogue.

Run from the root of a checkout:

    python3 perfbench/run.py --workload si-alias-lj --seed 1 --seconds 20 --trace 0

Workloads: si-alias-lj, seq-n2v-lj, spark-ppr-lj (see BENCHMARK.json).

The first run builds the repository's main sources together with the
harness in perfbench/src with sbt (offline) and caches the classpath in
perfbench/.work; later runs start the JVM directly. Every run checks the
walks it produced. The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run also records spans (written to perfbench/.work)
and a JFR execution-sample profile started from the JVM command line,
whose top-frame packages give the trace.*_host_share split.
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
WORK = os.path.join(HERE, ".work")
MAIN_SRC = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ("si-alias-lj", "seq-n2v-lj", "spark-ppr-lj")
# Pinned driver heap: the repository's build defaults -Xmx to 48g.
HEAP = "3g"
DEADLINE_S = 170.0
BUILD_DEADLINE_S = 840.0


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    for base in (MAIN_SRC, os.path.join(HERE, "src")):
        for d, _, fs in sorted(os.walk(base)):
            for f in sorted(fs):
                if f.endswith(".scala"):
                    yield os.path.join(d, f)
    yield os.path.join(HERE, "build.sbt")
    yield os.path.join(HERE, "project", "build.properties")


def source_hash():
    h = hashlib.sha256()
    for p in source_files():
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        fail("cannot find the Spark jars: set SPARK_HOME")
    return jars


def sbt_env():
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env["PERFBENCH_SPARK_JARS"] = spark_jars()
    tmp = os.path.join(WORK, "tmp")
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), "-Dsbt.offline=true",
                                "-Dsbt.server.autostart=false", "-Djava.io.tmpdir=" + tmp])
    return env


def run_sbt(tasks, timeout):
    """Run sbt in perfbench/ (its own build); returns stdout lines."""
    if not shutil.which("sbt"):
        fail("sbt is not on PATH")
    p = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true"] + tasks, cwd=HERE,
                       env=sbt_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-6000:])
        fail("sbt %s failed (exit %d)" % (" ".join(tasks), p.returncode), 1)
    return p.stdout.splitlines()


def build():
    """Compile once per source state; returns the runtime classpath."""
    stamp = os.path.join(WORK, "build.json")
    digest = source_hash()
    if os.path.exists(stamp):
        with open(stamp) as f:
            cached = json.load(f)
        if cached.get("hash") == digest and all(
                os.path.exists(p) for p in cached["classpath"].split(os.pathsep)):
            return cached["classpath"]
    t0 = time.time()
    lines = run_sbt(["compile", "export Runtime / fullClasspath"], BUILD_DEADLINE_S)
    cp = [l.strip() for l in lines if os.pathsep in l and ".jar" in l and not l.startswith("[")]
    if not cp:
        fail("sbt printed no classpath", 1)
    with open(stamp, "w") as f:
        json.dump({"hash": digest, "classpath": cp[-1]}, f)
    print("[perfbench] built in %.1f s" % (time.time() - t0))
    return cp[-1]


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        fail("java not found")
    return exe


def run_java(args, timeout):
    p = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-6000:])
        fail("%s exited with %d" % (args[-1] if len(args) else "java", p.returncode), 1)
    return p.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(MAIN_SRC, "repro")):
        fail("no program sources at %s; run from the root of a checkout" % MAIN_SRC)

    start = time.time()
    for d in ("tmp", "spark-local", "jfr-repo"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    cp = build()

    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    out = os.path.join(WORK, "result-%s.json" % tag)
    jfr = os.path.join(WORK, "profile-%s.jfr" % tag)
    for p in (out, jfr):
        if os.path.exists(p):
            os.remove(p)
    jvm = [java(), "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + os.path.join(WORK, "tmp")]
    if a.trace:
        jvm += ["-Xlog:jfr+startup=error",
                "-XX:FlightRecorderOptions=repository=" + os.path.join(WORK, "jfr-repo"),
                "-XX:StartFlightRecording=settings=profile,dumponexit=true,filename=" + jfr]
    jvm += ["-cp", cp, "repro.perfbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", out, "--work", WORK]
    try:
        sys.stdout.write(run_java(jvm, max(10.0, DEADLINE_S - (time.time() - start))))
    except subprocess.TimeoutExpired:
        fail("benchmark JVM timed out", 1)
    with open(out) as f:
        res = json.load(f)

    history = os.path.join(WORK, "untraced-steps-%s.json" % a.workload)
    if a.trace:
        metrics = res["layer"]
        lo, hi = res["window_us"]
        line = run_java([java(), "-XX:-UsePerfData", "-cp", cp, "repro.perfbench.JfrShares",
                         jfr, repr(lo), repr(hi)], 60).split()
        for name, v in zip(("memsim", "core", "other"), line[:3]):
            metrics["trace.%s_host_share" % name] = {"value": float(v), "unit": "frac"}
        print("[perfbench] JFR: %d execution samples in the timed window" % float(line[3]))
        traced = metrics["trace.steps_per_s"]["value"]
        if os.path.exists(history):
            with open(history) as f:
                base = statistics.median(json.load(f))
            print("[perfbench] tracing overhead: traced steps_per_s %.0f vs untraced median %.0f "
                  "(%+.1f%%)" % (traced, base, 100.0 * (traced / base - 1)))
        else:
            print("[perfbench] tracing overhead: no untraced run of %s in this checkout yet"
                  % a.workload)
    else:
        metrics = res["e2e"]
        past = []
        if os.path.exists(history):
            with open(history) as f:
                past = json.load(f)
        with open(history, "w") as f:
            json.dump(past + [metrics["steps_per_s"]["value"]], f)

    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
