#!/usr/bin/env python3
"""QLOVE benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the program and the benchmark from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) when
the sources changed, runs one workload in a JVM with a fixed heap, and
prints its report; the last line of standard output is the JSON result.
Exits non-zero, printing no result, when the build, the run, or the result's
metric set (checked against BENCHMARK.json) fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# A fixed heap keeps GC behaviour the same from run to run; the --add-opens
# set is the one spark-submit passes on JDK 17.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            fail("set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        fail(f"no Spark jars at {jars}")
    return jars


def sources():
    files = sorted((ROOT / "src/main/scala").rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    return files + [BENCH / "build.sh"]


def build(out, jars):
    if not (ROOT / "src/main/scala").is_dir():
        fail(f"no program sources under {ROOT}")
    digest = hashlib.sha256()
    for f in sources():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = out / "stamp"
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_JARS=str(jars))
    done = subprocess.run(["bash", str(BENCH / "build.sh"), str(out)], cwd=ROOT, env=env,
                          stdout=sys.stderr, timeout=800)
    if done.returncode != 0:
        fail("build failed")
    stamp.write_text(digest.hexdigest())


def java(out, jars, main, args):
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java"] + JVM_FLAGS + [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
        "-cp", f"{out / 'classes'}{os.pathsep}{jars / '*'}",
        main] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{main} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout.splitlines()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jars = spark_jars()
    build(out, jars)

    if a.self_test:
        code, lines = java(out, jars, "repro.perfbench.SelfTest", [])
        print("\n".join(lines))
        sys.exit(code)

    if a.workload is None or a.seed is None or a.seconds is None:
        fail("--workload, --seed and --seconds are required")
    want = expected_metrics(a.trace == 1)
    code, lines = java(out, jars, "repro.perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", str(out)])
    if code != 0 or not lines:
        print("\n".join(lines))
        fail(f"workload {a.workload} exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines))
        fail("the last line of the run is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        print("\n".join(lines[:-1]))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    print("\n".join(lines[:-1]))
    print(lines[-1])


if __name__ == "__main__":
    main()
