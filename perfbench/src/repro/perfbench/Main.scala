package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import java.util.Comparator
import scala.util.control.NonFatal

/** Runs one workload and prints its metrics; the last line of standard
  * output is the JSON result.
  *
  * {{{
  * Main --workload <ingest|tail-burst|reproduce|spark> --seed <n>
  *      --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * `--out` holds the run's scratch files (removed at exit) and, for a traced
  * run, the span file `traces/<workload>-seed<n>.jsonl`.
  */
object Main {
  val Names: Seq[String] = Seq("ingest", "tail-burst", "reproduce", "spark")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val code =
      try {
        val workload = opt("workload")
        require(Names.contains(workload), s"unknown workload $workload")
        val seed = opt("seed").toLong
        val seconds = opt("seconds").toDouble
        val trace = opt("trace") == "1"
        val out = Paths.get(opt("out"))
        try run(workload, seed, seconds, trace, out)
        finally deleteRecursively(out.resolve("tmp"))
      } catch {
        case NonFatal(e) =>
          e.printStackTrace()
          1
      }
    System.exit(code)
  }

  private def run(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path): Int = {
    val res = new Result
    val tracer = new Tracer(trace)
    val in = workload match {
      case "ingest" => Workloads.ingest(seed, seconds, tracer, res)
      case "tail-burst" => Workloads.tailBurst(seed, seconds, tracer, res)
      case "reproduce" => Workloads.reproduce(seed, seconds, tracer, res)
      case "spark" => Workloads.spark(seed, seconds, tracer, res, out)
    }
    res.e2e("eval_ok_ratio", res.checks.okRatio, "ratio", res.checks.attempted.toInt)
    if (trace) {
      LayerReplay(in, seed, res, out)
      res.layer("trace.overhead_pct", res.overheadPct.get, "%", 1)
      tracer.write(out.resolve("traces").resolve(s"$workload-seed$seed.jsonl"))
    }
    report(workload, seed, res, tracer)
    0
  }

  private def report(workload: String, seed: Long, res: Result, tracer: Tracer): Unit = {
    val metrics = if (tracer.enabled) res.perLayer else res.endToEnd
    println(s"== $workload (seed $seed, ${if (tracer.enabled) "traced" else "untraced"}) ==")
    (res.endToEnd ++ res.perLayer).foreach { case (k, m) =>
      val range = m.range.fold("")(r => f"  range ${r._1}%.6f..${r._2}%.6f")
      val tail = m.tail.fold("")(t => f"  p${(t._1 * 100).round}%d ${t._2}%.6f")
      println(f"$k%-28s ${m.value}%16.6f ${m.unit}%-6s n=${m.samples}$range$tail")
    }
    if (tracer.enabled) {
      println(s"tracing overhead: ${res.overheadPct.get}% (traced over untraced job pass, median)")
      Seq[(String, Span => String)]("layer" -> (_.layer), "call" -> (_.name)).foreach { case (by, key) =>
        val self = tracer.selfNs(key)
        val total = self.map(_._2).sum.toDouble
        println(s"self time of the traced set-up and job by $by:")
        self.foreach { case (k, ns) => println(f"  $k%-20s ${ns / 1e9}%10.4f s ${100 * ns / total}%6.2f%%") }
      }
    }
    println(s"checks: ${res.checks.attempted} attempted, ${res.checks.failed} failed")
    res.checks.failures.foreach(f => println(s"  FAILED $f"))
    metrics.foreach { case (k, m) =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric $k is not finite: ${m.value}")
    }
    val body = metrics.map { case (k, m) => s""""$k": {"value": ${m.value}, "unit": "${m.unit}"}""" }
    println(s"""{"correct": ${res.checks.failed == 0 && res.checks.attempted > 0}, """ +
      s""""attempted": ${res.checks.attempted}, "failed": ${res.checks.failed}, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
  }

  private def deleteRecursively(dir: Path): Unit =
    if (Files.exists(dir)) {
      val walk = Files.walk(dir)
      try walk.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
      finally walk.close()
    }
}
