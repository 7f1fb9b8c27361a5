package repro.baselines

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Stat
import repro.harness.SlidingEval

class RandomSamplingSpec extends AnyFunSuite {
  private val phis = Array(0.5, 0.9, 0.99)

  test("full-coverage sampling (budget >= window) is exact at the weighted rank") {
    val rnd = new scala.util.Random(71)
    // per-sub budget = min(period, total/n) = period here -> every element kept
    val pol = new RandomSampling(1000, 250, Array(0.5), epsilon = 0.02)
    val data = Array.fill(1000)(rnd.nextInt(500).toDouble)
    data.foreach(pol.insert)
    assert(pol.evaluate()(0) == Stat.exactQuantile(data, 0.5))
  }

  test("rank error is small with the default budget (probabilistic, seeded)") {
    val rnd = new scala.util.Random(72)
    val data = Array.fill(40000)(rnd.nextDouble() * 10000)
    val res = SlidingEval.run(data, 8000, 2000, phis,
      Seq(new RandomSampling(8000, 2000, phis, 0.02))).head
    res.rankError.zip(phis).foreach { case (e, phi) =>
      assert(e <= 0.02, s"phi=$phi rank error $e")
    }
  }

  test("subsampling actually happens for large sub-windows") {
    val pol = new RandomSampling(131072, 16384, phis, 0.02)
    val rnd = new scala.util.Random(73)
    (1 to 131072).foreach(_ => pol.insert(rnd.nextDouble()))
    assert(pol.observedSpace < 131072, s"space ${pol.observedSpace}")
    assert(pol.observedSpace > 10000) // ~45K budget split over 8 sub-windows
    assert(pol.analyticalSpace > 40000 && pol.analyticalSpace < 50000)
  }

  test("expired sub-windows stop influencing results") {
    val pol = new RandomSampling(1000, 500, Array(0.5), 0.02)
    (1 to 1000).foreach(_ => pol.insert(1000.0))
    assert(pol.evaluate()(0) == 1000.0)
    (1 to 1000).foreach(_ => pol.insert(5.0))
    assert(pol.evaluate()(0) == 5.0)
  }

  test("evaluate before full window fails") {
    val pol = new RandomSampling(1000, 500, phis, 0.02)
    (1 to 600).foreach(i => pol.insert(i.toDouble))
    intercept[IllegalArgumentException](pol.evaluate())
  }

  test("deterministic for a fixed seed") {
    def run(seed: Long): Seq[Double] = {
      val pol = new RandomSampling(2000, 500, phis, 0.05, seed = seed)
      val rnd = new scala.util.Random(74)
      (1 to 2000).foreach(_ => pol.insert(rnd.nextDouble() * 100))
      pol.evaluate().toSeq
    }
    assert(run(1) == run(1))
  }

  test("reservoir samples are unbiased enough for the median (loose check)") {
    val rnd = new scala.util.Random(75)
    val data = Array.fill(65536)(rnd.nextGaussian() * 10 + 100)
    val res = SlidingEval.run(data, 32768, 8192, Array(0.5),
      Seq(new RandomSampling(32768, 8192, Array(0.5), 0.02))).head
    assert(res.valueErrorPct(0) < 1.0, s"median error ${res.valueErrorPct(0)}%")
  }

  /** The policy as it was: each window's samples copied into boxed
    * (value, weight) pairs and put in order by a stable `sortBy`.
    */
  private final class SortByRandomSampling(windowSize: Long, period: Long, phis: Array[Double],
                                           epsilon: Double, seed: Long) {
    private val nSub = (windowSize / period).toInt
    private val totalBudget = math.ceil(math.log(1.0 / 1e-8) / (epsilon * epsilon)).toLong
    private val perSub = math.min(period, math.max(1L, totalBudget / nSub)).toInt
    private val rng = new java.util.Random(seed)
    private val sealed_ = new scala.collection.mutable.ArrayDeque[(Array[Double], Double)]()
    private var reservoir = new Array[Double](perSub)
    private var seenInSub = 0L

    def insert(v: Double): Unit = {
      if (seenInSub < perSub) reservoir(seenInSub.toInt) = v
      else {
        val j = (rng.nextDouble() * (seenInSub + 1)).toLong
        if (j < perSub) reservoir(j.toInt) = v
      }
      seenInSub += 1
      if (seenInSub == period) {
        val size = math.min(perSub.toLong, seenInSub).toInt
        val vals = java.util.Arrays.copyOf(reservoir, size)
        java.util.Arrays.sort(vals)
        sealed_.append((vals, seenInSub.toDouble / size))
        if (sealed_.length > nSub) sealed_.removeHead()
        reservoir = new Array[Double](perSub)
        seenInSub = 0
      }
    }

    def evaluate(): Array[Double] = {
      val merged = new Array[(Double, Double)](sealed_.iterator.map(_._1.length).sum)
      var k = 0
      sealed_.foreach { case (vs, w) =>
        var i = 0
        while (i < vs.length) { merged(k) = (vs(i), w); k += 1; i += 1 }
      }
      val sorted = merged.sortBy(_._1)
      phis.map { phi =>
        val target = Stat.rankOf(phi, windowSize).toDouble
        var cum = 0.0
        var i = 0
        var ans = sorted(sorted.length - 1)._1
        var done = false
        while (i < sorted.length && !done) {
          cum += sorted(i)._2
          if (cum >= target) { ans = sorted(i)._1; done = true }
          i += 1
        }
        ans
      }
    }
  }

  test("the primitive merge answers as the boxed sortBy did, bit for bit") {
    val value: Gen[Double] = Gen.frequency(
      3 -> Gen.oneOf(0.0, -0.0, -3.0, 1.0, 2.5, Double.PositiveInfinity, Double.NegativeInfinity,
        Double.MinPositiveValue, Double.NaN, longBitsToDouble(0x7ff0000000000001L)),
      2 -> Gen.choose(0.0, 20.0).map(math.rint),
      1 -> Gen.choose(-1e3, 1e3))
    val cases = for {
      period <- Gen.choose(1, 40)
      nSub <- Gen.oneOf(1, 2, 3, 8)
      epsilon <- Gen.oneOf(0.2, 0.5, 0.9)
      seed <- Gen.choose(0L, 1000L)
      len <- Gen.choose(period * nSub, period * nSub * 3)
      data <- Gen.listOfN(len, value)
      ps <- Gen.listOfN(4, Gen.frequency(1 -> Gen.oneOf(0.0, 0.5, 0.999, 1.0), 2 -> Gen.choose(0.0, 1.0)))
    } yield (period.toLong, period.toLong * nSub, epsilon, seed, data.toArray, ps.toArray)
    val prop = Prop.forAllNoShrink(cases) { case (period, n, epsilon, seed, data, ps) =>
      val pol = new RandomSampling(n, period, ps, epsilon, seed = seed)
      val ref = new SortByRandomSampling(n, period, ps, epsilon, seed)
      data.indices.forall { i =>
        pol.insert(data(i))
        ref.insert(data(i))
        (i + 1) % period != 0 || i + 1 < n ||
          pol.evaluate().toSeq.map(doubleToRawLongBits) == ref.evaluate().toSeq.map(doubleToRawLongBits)
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
