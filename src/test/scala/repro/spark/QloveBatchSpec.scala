package repro.spark

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.core.{FewKConfig, FreqSketch, Qlove, SubWindowSummary}
import repro.data.Telemetry

class QloveBatchSpec extends SparkSpec {
  private val phis = Array(0.5, 0.9, 0.99)

  /** Driver-side reference: run the sequential operator and key each
    * evaluation by its most recent sub-window index.
    */
  private def driverEstimates(data: Array[Double], n: Long, p: Long,
                              cfg: FewKConfig, digits: Int): Map[Long, Array[Double]] = {
    val op = new Qlove(n, p, phis, cfg, digits)
    val out = scala.collection.mutable.Map.empty[Long, Array[Double]]
    data.zipWithIndex.foreach { case (v, i) =>
      op.insert(v)
      if ((i + 1) % p == 0 && op.windowFull)
        out((i + 1) / p - 1) = op.evaluate()
    }
    out.toMap
  }

  private def toDf(data: Array[Double]) = {
    import spark.implicits._
    spark.sparkContext.parallelize(data.zipWithIndex.map { case (v, i) => (i.toLong, v) }, 8)
      .toDF("seq", "value")
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  private def assertSame(got: EvalEstimate, want: Array[Double]): Unit =
    phis.indices.foreach { i =>
      assert(bits(got.estimates(i)) == bits(want(i)),
        s"eval ${got.eval} phi=${phis(i)}: spark ${got.estimates(i)} vs driver ${want(i)}")
    }

  private def check(data: Array[Double], n: Long, p: Long, cfg: FewKConfig,
                    digits: Int): Unit = {
    val want = driverEstimates(data, n, p, cfg, digits)
    val got = QloveBatch.estimates(spark, toDf(data), n, p, cfg, digits).collect()
    assert(got.length == want.size, s"${got.length} evals vs ${want.size}")
    got.foreach(e => assertSame(e, want(e.eval)))
  }

  /** The tail-burst budget: top-k and sample-k both on for 0.99. */
  private def mixed(n: Long, p: Long): FewKConfig = {
    val top = FewKConfig.topOnly(n, p, phis, 0.5)
    FewKConfig(phis, top.poolSize, top.topK, FewKConfig.sampleOnly(n, phis, 0.5).sampleStep)
  }

  test("batch pipeline equals the driver operator: plain Level-2") {
    val data = Telemetry.netmon(20000).toArray
    check(data, 4096, 1024, FewKConfig.disabled(phis), 3)
  }

  test("batch pipeline equals the driver operator: top-k merging") {
    val data = Telemetry.netmon(16000).toArray
    check(data, 2048, 256, FewKConfig.topOnly(2048, 256, phis, 0.5), 3)
  }

  test("batch pipeline equals the driver operator: sample-k with bursts") {
    val base = Telemetry.netmon(16000).toArray
    val data = Telemetry.injectBurst(base, 2048, 512, 0.99)
    check(data, 2048, 512, FewKConfig.sampleOnly(2048, phis, 0.5), 3)
  }

  test("batch pipeline equals the driver operator: top-k and sample-k on one phi") {
    val (n, p) = (2048L, 512L)
    val cfg = mixed(n, p)
    assert(cfg.topEnabled(2) && cfg.sampleEnabled(2))
    val data = Telemetry.injectBurst(Telemetry.netmon(16000).toArray, n, p, 0.99)
    var prev = cfg.phis.map(_ => Array.emptyDoubleArray)
    val flagged = data.grouped(p.toInt).filter(_.length == p).count { chunk =>
      val sk = new FreqSketch
      chunk.foreach(sk.accumulateQuantized(_, 3))
      val s = SubWindowSummary.fromSketch(sk, cfg, prev)
      prev = SubWindowSummary.pools(sk, cfg)
      s.bursty(2)
    }
    assert(flagged > 0, "no sub-window was flagged bursty")
    check(data, n, p, cfg, 3)
  }

  test("batch pipeline equals the driver operator: no quantization") {
    val data = Telemetry.pareto(12000).toArray
    check(data, 2048, 1024, FewKConfig.disabled(phis), 0)
  }

  test("batch equals the driver as raw bits over random inputs (property)") {
    val case_ = for {
      n <- Gen.oneOf(1, 2, 3, 8)
      p <- Gen.oneOf(64L, 128L)
      fewk <- Gen.choose(0, 3)
      digits <- Gen.oneOf(0, 3)
      burst <- Gen.oneOf(false, true)
      extraSubs <- Gen.choose(0, 6)
      partial <- Gen.choose(0, 63)
      seed <- Gen.choose(1L, 1000L)
    } yield (n, p, fewk, digits, burst, extraSubs, partial, seed)
    val prop = Prop.forAllNoShrink(case_) {
      case (n, p, fewk, digits, burst, extraSubs, partial, seed) =>
        val w = n * p
        val cfg = fewk match {
          case 0 => FewKConfig.disabled(phis)
          case 1 => FewKConfig.topOnly(w, p, phis, 0.5)
          case 2 => FewKConfig.sampleOnly(w, phis, 0.5)
          case _ => mixed(w, p)
        }
        // fractional values, so that a re-summed and a running Level-2 mean can differ
        val rnd = new scala.util.Random(seed)
        val base = Telemetry.netmon(w + extraSubs * p + partial, seed).map(_ + rnd.nextDouble()).toArray
        val data = if (burst) Telemetry.injectBurst(base, w, p, 0.99) else base
        check(data, w, p, cfg, digits)
        true
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(48), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("a missing sub-window restarts the window: no evaluation spans it") {
    val (n, p, gap) = (2048L, 512L, 5L)
    val cfg = FewKConfig.disabled(phis)
    val data = Telemetry.netmon(12 * p).toArray
    val want = driverEstimates(data, n, p, cfg, 3)
    val events = toDf(data).where(col("seq") < gap * p || col("seq") >= (gap + 1) * p)
    val got = QloveBatch.estimates(spark, events, n, p, cfg, 3).collect()
    val spanning = (gap until gap + n / p).toSet
    assert(spanning.subsetOf(want.keySet))
    assert(got.map(_.eval).toSeq == (want.keySet -- spanning).toSeq.sorted)
    got.foreach(e => assertSame(e, want(e.eval)))
  }

  test("incomplete trailing sub-windows are dropped") {
    val data = Telemetry.netmon(4096 + 100).toArray // partial last sub-window
    val got = QloveBatch.estimates(spark, toDf(data), 2048, 1024,
      FewKConfig.disabled(phis)).collect()
    assert(got.length == (4096 - 2048) / 1024 + 1)
  }

  test("subWindowSummaries filters partial sub-windows and keys by index") {
    val data = Telemetry.netmon(3500).toArray
    val df = QloveBatch.subWindowSummaries(toDf(data), 1000, FewKConfig.disabled(phis))
    val subs = df.select("sub").collect().map(_.getLong(0)).sorted
    assert(subs.sameElements(Array(0L, 1L, 2L)))
    val counts = df.select(col("summary.count")).collect().map(_.getLong(0))
    assert(counts.forall(_ == 1000L))
  }

  test("evaluation ids are consecutive and start at n-1") {
    val data = Telemetry.netmon(10240).toArray
    val got = QloveBatch.estimates(spark, toDf(data), 2048, 512,
      FewKConfig.disabled(phis)).collect()
    val ids = got.map(_.eval)
    assert(ids.head == 3) // n = 4 sub-windows -> first full window ends at sub 3
    assert(ids.sameElements(ids.head to ids.last))
  }

  test("rejects misaligned window/period") {
    val data = Telemetry.netmon(2000).toArray
    intercept[IllegalArgumentException](
      QloveBatch.estimates(spark, toDf(data), 1000, 300, FewKConfig.disabled(phis)))
  }
}
