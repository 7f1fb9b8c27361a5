package repro.core

import org.scalatest.funsuite.AnyFunSuite

class Level2Spec extends AnyFunSuite {
  private val phis = Array(0.5, 0.99)

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

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

  /** The §4.3 selection over a full window, re-summing the Level-2 mean:
    * the reference [[Level2.evaluate]] is compared against.
    */
  private def reference(window: IndexedSeq[SubWindowSummary], cfg: FewKConfig,
                        windowSize: Long): Array[Double] =
    Array.tabulate(cfg.phis.length) { i =>
      val t = FewK.depthFromTop(windowSize, cfg.phis(i))
      if (cfg.sampleEnabled(i) && window.exists(_.bursty(i)))
        FewK.mergeSampleK(window.map(s => (s.samples(i),
          FewK.sampleWeight(math.min(cfg.poolSize(i).toLong, s.count).toInt,
            s.samples(i).length))), t)
      else if (cfg.topEnabled(i)) FewK.mergeTopK(window.map(_.topK(i)), t)
      else window.map(_.quantiles(i)).sum / window.length
    }

  test("the seal over explicit pools rebuilds fromSketch's summaries") {
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

  test("Level2 fed the seal inputs equals the Qlove operator bit for bit") {
    val rnd = new scala.util.Random(12)
    val n = 1000L
    val p = 250L
    for (cfg <- Seq(FewKConfig.disabled(phis),
                    FewKConfig.topOnly(n, p, phis, 0.5),
                    FewKConfig.sampleOnly(n, phis, 0.5))) {
      val data = Array.fill(3 * n.toInt)(rnd.nextDouble() * 5000)
      val op = new Qlove(n, p, phis, cfg, 0)
      val level2 = new Level2(n, p, cfg)
      data.grouped(p.toInt).zipWithIndex.foreach { case (chunk, sub) =>
        chunk.foreach(op.insert)
        val sk = new FreqSketch
        chunk.foreach(sk.accumulate)
        level2.add(sk.count, sk.computeResult(phis), SubWindowSummary.pools(sk, cfg))
        assert(level2.full == op.windowFull)
        if (level2.full) {
          val (viaOp, viaL2) = (op.evaluate(), level2.evaluate())
          phis.indices.foreach { i =>
            assert(bits(viaOp(i)) == bits(viaL2(i)),
              s"cfg=$cfg sub=$sub phi=${phis(i)}: ${viaOp(i)} vs ${viaL2(i)}")
          }
        }
      }
    }
  }

  test("evaluate before a full window is rejected") {
    val cfg = FewKConfig.disabled(phis)
    val level2 = new Level2(300, 100, cfg)
    intercept[IllegalArgumentException](level2.evaluate())
    level2.add(100, Array(1.0, 2.0), Array(Array.emptyDoubleArray, Array.emptyDoubleArray))
    level2.add(100, Array(1.0, 2.0), Array(Array.emptyDoubleArray, Array.emptyDoubleArray))
    assert(!level2.full)
    intercept[IllegalArgumentException](level2.evaluate())
  }

  test("level-2 mean path matches hand computation") {
    val cfg = FewKConfig.disabled(phis)
    val level2 = new Level2(30, 10, cfg)
    Seq(10.0, 20.0, 30.0).foreach(q =>
      level2.add(10, Array(q, q * 2), phis.map(_ => Array.emptyDoubleArray)))
    val est = level2.evaluate()
    assert(est(0) == 20.0 && est(1) == 40.0)
  }

  test("mixed top-k and sample-k on a bursty stream: Level2 == reference bit for bit") {
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
        val viaRef = reference(window, cfg, n)
        Seq(2, 3).foreach { i =>
          assert(bits(viaOp(i)) == bits(viaRef(i)), s"sub=$sub phi=${ph(i)}")
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
