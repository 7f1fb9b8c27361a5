package repro.core

import org.scalatest.funsuite.AnyFunSuite

class QloveEstimatorSpec extends AnyFunSuite {
  private val phis = Array(0.5, 0.99)

  private def driverSummaries(data: Array[Double], n: Long, p: Long,
                              cfg: FewKConfig, digits: Int = 0): IndexedSeq[SubWindowSummary] = {
    var prev: Array[Array[Double]] = cfg.phis.map(_ => Array.emptyDoubleArray)
    data.grouped(p.toInt).map { chunk =>
      val sk = new FreqSketch
      chunk.foreach(v => sk.accumulate(if (digits > 0) Quantizer.quantize(v, digits) else v))
      val s = SubWindowSummary.fromSketch(sk, cfg, prev)
      prev = SubWindowSummary.pools(sk, cfg)
      s
    }.toIndexedSeq
  }

  test("fromPools rebuilds identical summaries from raw pools") {
    val rnd = new scala.util.Random(11)
    val n = 800L
    val p = 200L
    val cfg = FewKConfig.sampleOnly(n, phis, 0.5)
    val data = Array.fill(n.toInt)(rnd.nextDouble() * 1000)
    val direct = driverSummaries(data, n, p, cfg)
    // the seal over explicit pools, one for every phi (the seal ignores the
    // pools of phis with few-k off), with the burst flags recomputed here
    var prevPools: Array[Array[Double]] = phis.map(_ => Array.emptyDoubleArray)
    val viaPools = data.grouped(p.toInt).map { chunk =>
      val sk = new FreqSketch
      chunk.foreach(sk.accumulate)
      val pools = phis.indices.map(i => sk.topValues(cfg.poolSize(i))).toArray
      val bursty = phis.indices.map(i =>
        cfg.sampleEnabled(i) && prevPools(i).nonEmpty &&
          MannWhitney.isStochasticallyLarger(pools(i), prevPools(i), cfg.burstAlpha)).toArray
      val s = SubWindowSummary.seal(chunk.length, sk.computeResult(phis), pools, prevPools, cfg)
      assert(s.bursty.sameElements(bursty))
      prevPools = pools
      s
    }.toIndexedSeq
    direct.zip(viaPools).foreach { case (a, b) =>
      assert(a.count == b.count)
      assert(a.quantiles.sameElements(b.quantiles))
      phis.indices.foreach { i =>
        assert(a.samples(i).sameElements(b.samples(i)), s"samples phi=$i")
        assert(a.topK(i).sameElements(b.topK(i)), s"topk phi=$i")
        assert(a.bursty(i) == b.bursty(i))
      }
    }
  }

  test("estimate equals the Qlove operator's evaluate on the same stream") {
    val rnd = new scala.util.Random(12)
    val n = 1000L
    val p = 250L
    for (cfg <- Seq(FewKConfig.disabled(phis),
                    FewKConfig.topOnly(n, p, phis, 0.5),
                    FewKConfig.sampleOnly(n, phis, 0.5))) {
      val data = Array.fill(n.toInt)(rnd.nextDouble() * 5000)
      val op = new Qlove(n, p, phis, cfg, 0)
      data.foreach(op.insert)
      val viaOp = op.evaluate()
      val viaEst = QloveEstimator.estimate(driverSummaries(data, n, p, cfg), cfg, n)
      phis.indices.foreach { i =>
        assert(math.abs(viaOp(i) - viaEst(i)) <= 1e-9 * math.abs(viaEst(i)),
          s"cfg=$cfg phi=${phis(i)}: ${viaOp(i)} vs ${viaEst(i)}")
      }
    }
  }

  test("estimate rejects empty input") {
    intercept[IllegalArgumentException](
      QloveEstimator.estimate(IndexedSeq.empty, FewKConfig.disabled(phis), 100))
  }

  test("level-2 mean path matches hand computation") {
    val cfg = FewKConfig.disabled(phis)
    val mk = (q: Double) => SubWindowSummary(10, Array(q, q * 2),
      phis.map(_ => Array.emptyDoubleArray), phis.map(_ => Array.emptyDoubleArray),
      phis.map(_ => false))
    val est = QloveEstimator.estimate(IndexedSeq(mk(10), mk(20), mk(30)), cfg, 30)
    assert(est(0) == 20.0 && est(1) == 40.0)
  }

  test("mixed top-k and sample-k on a bursty stream: driver == estimator bit for bit") {
    // the tail-burst budget: top-k and sample-k on for 0.999, sample-k on for 0.99
    val ph = Array(0.5, 0.9, 0.99, 0.999)
    val (n, p) = (16384L, 1024L)
    val top = FewKConfig.topOnly(n, p, ph, 0.5)
    val cfg = FewKConfig(ph, top.poolSize, top.topK, FewKConfig.sampleOnly(n, ph, 0.5).sampleStep)
    assert(cfg.topEnabled(3) && cfg.sampleEnabled(3))
    assert(!cfg.topEnabled(2) && cfg.sampleEnabled(2))
    assert(!cfg.topEnabled(1) && !cfg.sampleEnabled(1))
    val data = repro.data.Telemetry.injectBurst(
      repro.data.Telemetry.netmon(4 * n, 3).toArray, n, p, 0.999, 10.0)
    val summaries = driverSummaries(data, n, p, cfg, digits = 3)
    val op = new Qlove(n, p, ph, cfg)
    val nSub = (n / p).toInt
    var burstyWindows = 0
    data.grouped(p.toInt).zipWithIndex.foreach { case (chunk, sub) =>
      chunk.foreach(op.insert)
      if (op.windowFull) {
        val window = summaries.slice(sub - nSub + 1, sub + 1)
        if (window.exists(_.bursty(3))) burstyWindows += 1
        val viaOp = op.evaluate()
        val viaEst = QloveEstimator.estimate(window, cfg, n)
        Seq(2, 3).foreach { i =>
          assert(java.lang.Double.doubleToRawLongBits(viaOp(i)) ==
            java.lang.Double.doubleToRawLongBits(viaEst(i)), s"sub=$sub phi=${ph(i)}")
        }
      }
    }
    assert(burstyWindows > 0, "no window took the sample-k branch")
  }

  test("an ascending few-k cache is rejected where summaries are built") {
    val ph = Array(0.99)
    val cfg = FewKConfig(ph, Array(4), Array(4), Array(1))
    val first = Array(Array.emptyDoubleArray) // no predecessor
    intercept[IllegalArgumentException](
      SubWindowSummary.seal(4, Array(3.0), Array(Array(1.0, 2.0, 3.0, 4.0)), first, cfg))
    intercept[IllegalArgumentException](
      SubWindowSummary(4, Array(3.0), Array(Array(4.0, 3.0)), Array(Array(1.0, 2.0)), Array(false)))
    // non-increasing under Double.compare, ties included, is accepted
    SubWindowSummary.seal(4, Array(3.0), Array(Array(4.0, 4.0, 0.0, -0.0)), first, cfg)
  }
}
