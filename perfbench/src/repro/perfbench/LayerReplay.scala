package repro.perfbench

import java.nio.file.Path
import repro.baselines.{ArasuManku, Cmqs, ExactSliding, MomentSketchPolicy, RandomSampling}
import repro.core.{FewK, FewKConfig, FreqSketch, MannWhitney, Quantizer, SlidingQuantilePolicy, SubWindowSummary}
import repro.data.Telemetry
import repro.harness.{SlidingEval, Tables}
import scala.collection.mutable.ArrayBuffer

/** Per-layer metrics of a traced run. Each layer is timed from outside, by
  * calls into its public functions on the workload's own input (stream,
  * window, period, few-k configuration). Metrics the workload's job already
  * measured are kept; the rest come from replaying the layer's calls on that
  * input after the job, so every traced run reports every layer. Replays are
  * not traced: the self-time table covers the job alone.
  */
object LayerReplay {
  /** Sub-window and merge replays use the tail-burst few-k budget. */
  val FewKFraction = 0.5

  def apply(in: Input, seed: Long, res: Result, out: Path): Unit = {
    data(in, seed, res)
    core(in, res)
    baselines(in, res)
    harness(in, seed, res)
    if (!res.perLayer.contains("spark.stage1_s")) spark(in, res, out)
  }

  private def timeNs(body: => Unit): Double = Loop.nanos(body)._2.toDouble

  private def data(in: Input, seed: Long, res: Result): Unit = {
    val n = math.min(in.stream.length, 1 << 20)
    val gen = Loop.timed(0, 3)(Loop.nanos(Telemetry.netmon(n, seed).toArray)._2)
    res.layer("data.generate_ns", gen.median / n, "ns", gen.count)
    val burst = Loop.timed(0, 3)(Loop.nanos(
      Telemetry.injectBurst(in.stream, in.windowSize, in.period, 0.999, 10.0))._2)
    res.layer("data.inject_burst_ms", burst.median / 1e6, "ms", burst.count)
  }

  private def core(in: Input, res: Result): Unit = {
    val s = in.stream
    val n = s.length
    val p = in.period.toInt
    val q = new Array[Double](n)
    val quant = Loop.timed(0, 3)(Loop.nanos {
      var i = 0
      while (i < n) { q(i) = Quantizer.quantize(s(i)); i += 1 }
    }._2)
    res.layer("core.quantize_ns", quant.median / n, "ns", quant.count)

    // Level 1: accumulate each sub-window's quantized values; the first
    // round warms the JIT.
    val sk = new FreqSketch
    def fill(sub: Int): Unit = {
      sk.clear()
      var j = sub * p
      val end = j + p
      while (j < end) { sk.accumulate(q(j)); j += 1 }
    }
    val acc, unique = new Samples
    for (round <- 0 until 2; sub <- 0 until in.periods) {
      val ns = timeNs(fill(sub))
      if (round == 1) { acc.add(ns / p); unique.add(sk.uniqueCount) }
    }
    res.layer("core.accumulate_ns", acc.median, "ns", acc.count)
    res.layer("core.unique_values", unique.median, "count", unique.count)

    // Seal and Level-2 evaluate through the operator, until the p99s have
    // enough samples beyond them.
    val seal, eval = new Samples
    DriverLoop.pass(in, Tracer.Off, new Samples, new Samples, new Samples)
    while (eval.count < Stats.minSamples(0.99) || seal.count < Stats.minSamples(0.99))
      DriverLoop.pass(in, Tracer.Off, seal, eval, new Samples)
    res.layer("core.seal_us_p50", seal.median / 1e3, "us", seal.count)
    res.layer("core.seal_us_p99", seal.percentile(0.99, "core.seal") / 1e3, "us", seal.count)
    res.layer("core.evaluate_us_p50", eval.median / 1e3, "us", eval.count)
    res.layer("core.evaluate_us_p99", eval.percentile(0.99, "core.evaluate") / 1e3, "us", eval.count)

    // Each sub-window through the seal's public parts. The pool is the
    // exact-guarantee pool of the highest φ, the burst test compares it with
    // the predecessor's, and the caches are the tail-burst budget's.
    val hi = in.phis.indexOf(in.phis.max)
    val poolLen = FewK.depthFromTop(in.windowSize, in.phis(hi)).toInt
    val step = FewKConfig.sampleOnly(in.windowSize, in.phis, FewKFraction).sampleStep(hi)
    val topLen = math.max(1, math.ceil(FewKFraction * poolLen).toInt)
    val compute, top, summary, mw = new Samples
    var bursty = 0
    var prevPool = Array.emptyDoubleArray
    var prevPools = in.phis.map(_ => Array.emptyDoubleArray)
    val tops = new ArrayBuffer[Array[Double]]()
    val samples = new ArrayBuffer[(Array[Double], Double)]()
    for (sub <- 0 until in.periods) {
      fill(sub)
      compute.add(timeNs(sk.computeResult(in.phis)) / 1e3)
      var pool = Array.emptyDoubleArray
      top.add(timeNs { pool = sk.topValues(poolLen) } / 1e3)
      summary.add(timeNs(SubWindowSummary.fromSketch(sk, in.cfg, prevPools)) / 1e3)
      prevPools = SubWindowSummary.pools(sk, in.cfg)
      if (prevPool.nonEmpty) {
        var pv = 1.0
        mw.add(timeNs { pv = MannWhitney.pValueGreater(pool, prevPool) } / 1e3)
        if (pv < in.cfg.burstAlpha) bursty += 1
      }
      prevPool = pool
      tops += pool.take(topLen)
      val smp = FewK.intervalSample(pool, step)
      samples += ((smp, FewK.sampleWeight(math.min(poolLen, p), smp.length)))
    }
    res.layer("core.compute_result_us", compute.median, "us", compute.count)
    res.layer("core.top_values_us", top.median, "us", top.count)
    res.layer("core.from_sketch_us", summary.median, "us", summary.count)
    res.layer("core.mw_us", mw.median, "us", mw.count)
    res.layer("core.bursty_ratio", bursty.toDouble / mw.count, "ratio", mw.count)

    // Level-2 few-k merges over every full window of those caches.
    val t = FewK.depthFromTop(in.windowSize, in.phis(hi))
    val topK, sampleK, merged = new Samples
    for (e <- in.nSub - 1 until in.periods) {
      val from = e - in.nSub + 1
      topK.add(timeNs(FewK.mergeTopK(tops.slice(from, e + 1), t)) / 1e3)
      val window = samples.slice(from, e + 1)
      sampleK.add(timeNs(FewK.mergeSampleK(window, t)) / 1e3)
      merged.add(window.map(_._1.length).sum)
    }
    res.layer("core.merge_topk_us", topK.median, "us", topK.count)
    res.layer("core.merge_samplek_us", sampleK.median, "us", sampleK.count)
    res.layer("core.merged_values", merged.median, "count", merged.count)
  }

  /** Each baseline policy over the first window plus 32 periods. */
  private def baselines(in: Input, res: Result): Unit = {
    val p = in.period.toInt
    val subs = math.min(in.periods, in.nSub + 32)
    val n = in.windowSize
    val policies: Seq[(String, SlidingQuantilePolicy)] = Seq(
      "exact" -> new ExactSliding(n, in.phis),
      "cmqs" -> new Cmqs(n, in.period, in.phis, Tables.Epsilon),
      "am" -> new ArasuManku(n, in.period, in.phis, Tables.Epsilon),
      "random" -> new RandomSampling(n, in.period, in.phis, Tables.Epsilon),
      "moment" -> new MomentSketchPolicy(n, in.period, in.phis, Tables.MomentK),
    )
    policies.foreach { case (name, pol) =>
      val ins, ev, rank = new Samples
      for (sub <- 0 until subs) {
        ins.add(timeNs {
          var j = sub * p
          val end = j + p
          while (j < end) { pol.insert(in.stream(j)); j += 1 }
        } / p)
        if (sub >= in.nSub - 1) {
          var est = Array.emptyDoubleArray
          ev.add(timeNs { est = pol.evaluate() } / 1e3)
          pol match {
            case exact: ExactSliding => est.foreach(v => rank.add(timeNs(exact.rankInterval(v)) / 1e3))
            case _ =>
          }
        }
      }
      res.layer(s"$name.insert_ns", ins.median, "ns", ins.count)
      res.layer(s"$name.evaluate_us", ev.median, "us", ev.count)
      if (rank.count > 0) res.layer(s"$name.rank_interval_us", rank.median, "us", rank.count)
    }
  }

  /** Ground truth over the workload's stream, and the two tables (at up to
    * 512K events) unless the job timed them.
    */
  private def harness(in: Input, seed: Long, res: Result): Unit = {
    val truth = Loop.timed(0, 2)(Loop.nanos(
      SlidingEval.run(in.stream, in.windowSize, in.period, in.phis, Nil))._2)
    res.layer("harness.truth_s", truth.median / 1e9, "s", truth.count)
    if (!res.perLayer.contains("harness.table1_s")) {
      val events = math.min(in.stream.length, 1 << 19).toLong
      val t1 = Loop.timed(0, 2)(Loop.nanos(Tables.table1(events, seed))._2)
      val t2 = Loop.timed(0, 2)(Loop.nanos(Tables.table2(events, seed))._2)
      res.layer("harness.table1_s", t1.median / 1e9, "s", t1.count)
      res.layer("harness.table2_s", t2.median / 1e9, "s", t2.count)
    }
  }

  /** Both Spark paths over the first window plus 8 periods. */
  private def spark(full: Input, res: Result, out: Path): Unit = {
    val in = full.copy(stream = full.stream.take((full.windowSize + 8 * full.period).toInt))
    val scratch = SparkSide.scratchDir(out, "spark-replay")
    val spark = SparkSide.session(scratch)
    try {
      val df = SparkSide.events(spark, in.stream)
      SparkSide.batch(spark, df, in)
      val batch = Loop.timed(0, 2)(SparkSide.batch(spark, df, in)._2)
      val stage1 = Loop.timed(0, 2)(SparkSide.stage1(df, in))
      val (tasks, bytes) = SparkSide.taskCounts(spark)(SparkSide.batch(spark, df, in))
      val stream = new SparkSide.Stream(spark, in, scratch.resolve("checkpoint"))
      stream.add((in.windowSize - in.period).toInt)
      (1 to 3).foreach(_ => stream.add(in.period.toInt))
      stream.stop()
      SparkSide.layerMetrics(res, stage1, batch, tasks, bytes, stream.progress, in.period)
    } finally spark.stop()
  }
}
