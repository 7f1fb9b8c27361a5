#!/usr/bin/env bash
# Compiles the program (src/main/scala) and the benchmark (perfbench/src)
# into <out>/classes with the Scala compiler that ships in Spark's jars.
# Run from the repository root:  bash perfbench/build.sh <out>
set -euo pipefail
out=${1:?usage: build.sh <out-dir>}
jars=${SPARK_JARS:?SPARK_JARS must name the Spark jars directory}
[ -d src/main/scala ] || { echo "build.sh: no src/main/scala under $(pwd)" >&2; exit 1; }
compiler=$(ls "$jars"/scala-compiler-2.13.*.jar | head -n 1)
library=$(ls "$jars"/scala-library-2.13.*.jar | head -n 1)
reflect=$(ls "$jars"/scala-reflect-2.13.*.jar | head -n 1)
rm -rf "$out/classes"
mkdir -p "$out/classes"
find src/main/scala perfbench/src -name '*.scala' | sort > "$out/sources.txt"
java -Xss8m -Xmx1g -cp "$compiler:$library:$reflect" scala.tools.nsc.Main \
  -nowarn -d "$out/classes" -classpath "$jars/*" "@$out/sources.txt"
