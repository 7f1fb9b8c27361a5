package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FewKSpec extends AnyFunSuite {
  private val phis = Array(0.5, 0.9, 0.99, 0.999)

  test("depthFromTop identities from the paper") {
    // N = 131072: the 0.999-quantile is the 132nd largest
    assert(FewK.depthFromTop(131072, 0.999) == 132)
    assert(FewK.depthFromTop(100, 0.5) == 51)
    assert(FewK.depthFromTop(100, 1.0) == 1)
  }

  test("intervalSample picks every i-th ranked value") {
    val pool = Array(100.0, 90, 80, 70, 60, 50, 40, 30, 20, 10)
    assert(FewK.intervalSample(pool, 2).sameElements(Array(90.0, 70, 50, 30, 10)))
    assert(FewK.intervalSample(pool, 3).sameElements(Array(80.0, 50, 20)))
    assert(FewK.intervalSample(pool, 1).sameElements(pool))
    assert(FewK.intervalSample(pool, 11).isEmpty)
    intercept[IllegalArgumentException](FewK.intervalSample(pool, 0))
  }

  test("mergeTopK returns the exact t-th largest when caches are big enough") {
    val caches = Seq(Array(100.0, 90, 80), Array(95.0, 85, 75), Array(99.0, 60, 50))
    // merged desc: 100,99,95,90,85,80,75,60,50
    assert(FewK.mergeTopK(caches, 1) == 100.0)
    assert(FewK.mergeTopK(caches, 4) == 90.0)
    assert(FewK.mergeTopK(caches, 9) == 50.0)
  }

  test("mergeTopK saturates at the smallest cached value when t exceeds cache") {
    val caches = Seq(Array(10.0, 9.0), Array(8.0))
    assert(FewK.mergeTopK(caches, 50) == 8.0)
  }

  test("mergeTopK rejects empty caches") {
    intercept[IllegalArgumentException](FewK.mergeTopK(Seq(Array.emptyDoubleArray), 1))
  }

  test("mergeSampleK weights each sample by its rank coverage") {
    // one sub-window sampled with weight 3: samples {90, 60} stand for 3 ranks each
    val s = Seq((Array(90.0, 60.0), 3.0))
    assert(FewK.mergeSampleK(s, 1) == 90.0)
    assert(FewK.mergeSampleK(s, 3) == 90.0)
    assert(FewK.mergeSampleK(s, 4) == 60.0)
    assert(FewK.mergeSampleK(s, 100) == 60.0)
  }

  test("mergeSampleK across sub-windows interleaves by value") {
    val s = Seq((Array(90.0, 60.0), 2.0), (Array(80.0, 70.0), 2.0))
    // desc: 90(w2) 80(w2) 70(w2) 60(w2); cum 2,4,6,8
    assert(FewK.mergeSampleK(s, 2) == 90.0)
    assert(FewK.mergeSampleK(s, 3) == 80.0)
    assert(FewK.mergeSampleK(s, 6) == 70.0)
  }

  test("sampleWeight covers the pool exactly") {
    assert(FewK.sampleWeight(132, 14) * 14 == 132.0)
    assert(FewK.sampleWeight(10, 0) == 0.0)
  }

  test("E4-even-spread: top-k with k=1 per sub-window is exact") {
    // paper Fig. 3 E4 — each of 10 sub-windows holds exactly one of the top-10
    val caches = (1 to 10).map(i => Array(1000.0 + i))
    assert(FewK.mergeTopK(caches, 10) == 1001.0)
  }

  test("E1-burst: top-k with k=1 per sub-window misses deep burst values") {
    // all 10 largest sit in sub-window 1; caching 1 value each only sees rank 1
    val burst = Array.tabulate(10)(i => 2000.0 - i)
    val caches = burst.take(1) +: (2 to 10).map(_ => Array(100.0))
    // true 10th largest is 1991; merged caches give 100 at depth 10
    assert(FewK.mergeTopK(caches.map(identity), 10) == 100.0)
  }

  test("disabled config has nothing enabled") {
    val cfg = FewKConfig.disabled(phis)
    phis.indices.foreach { i =>
      assert(!cfg.topEnabled(i) && !cfg.sampleEnabled(i))
    }
  }

  test("topOnly enables only statistically inefficient quantiles") {
    val cfg = FewKConfig.topOnly(131072, 8192, phis, 0.1)
    // P(1-phi): 4096, 819, 81.9, 8.19 -> only 0.999 is below Ts=10
    assert(!cfg.topEnabled(0) && !cfg.topEnabled(1) && !cfg.topEnabled(2))
    assert(cfg.topEnabled(3))
    assert(cfg.poolSize(3) == 132) // ceil(131072 * 0.001)
    assert(cfg.topK(3) == math.ceil(0.1 * 132).toInt)
    assert(phis.indices.forall(i => !cfg.sampleEnabled(i)))
  }

  test("topOnly with larger period disables everything") {
    val cfg = FewKConfig.topOnly(131072, 65536, phis, 0.5)
    phis.indices.foreach(i => assert(!cfg.topEnabled(i) && !cfg.sampleEnabled(i)))
  }

  test("sampleOnly sets a step inversely proportional to the fraction") {
    val cfg = FewKConfig.sampleOnly(131072, phis, 0.1)
    // only high quantiles (phi >= 0.99 by default) get sampling
    assert(!cfg.sampleEnabled(0) && !cfg.sampleEnabled(1))
    assert(cfg.sampleEnabled(2) && cfg.sampleEnabled(3))
    assert(cfg.sampleStep(3) == 9) // pool 132, ks 14 -> step round(132/14) = 9
    val cfgHalf = FewKConfig.sampleOnly(131072, phis, 0.5)
    assert(cfgHalf.sampleStep(3) == 2)
    val cfgOff = FewKConfig.sampleOnly(131072, phis, 0.0)
    phis.indices.foreach(i => assert(!cfgOff.topEnabled(i) && !cfgOff.sampleEnabled(i)))
    // lowering minPhi widens the sampled set
    assert(FewKConfig.sampleOnly(131072, phis, 0.1, minPhi = 0.5).sampleEnabled(0))
  }

  test("config construction validates array alignment") {
    intercept[IllegalArgumentException](
      FewKConfig(phis, Array(1), Array(1), Array(1)))
  }
}
