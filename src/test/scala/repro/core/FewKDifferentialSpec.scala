package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** The k-way few-k merges and the linear Mann–Whitney pass against the
  * sort-based implementations they replaced, compared as raw bits.
  */
class FewKDifferentialSpec extends AnyFunSuite {

  /** Sort-based top-k merge: the t-th largest of the concatenated caches. */
  private def refMergeTopK(caches: Iterable[Array[Double]], t: Long): Double = {
    val merged = new scala.collection.mutable.ArrayBuffer[Double]()
    caches.foreach(merged ++= _)
    require(merged.nonEmpty, "top-k merge with no cached values")
    val sorted = merged.toArray
    java.util.Arrays.sort(sorted)
    val idx = sorted.length - math.min(t, sorted.length.toLong).toInt
    sorted(idx)
  }

  /** Sort-based sample-k merge: a stable descending sort of all weighted
    * samples, walked until the cumulative weight reaches t.
    */
  private def refMergeSampleK(samples: Iterable[(Array[Double], Double)], t: Long): Double = {
    val weighted = new scala.collection.mutable.ArrayBuffer[(Double, Double)]()
    samples.foreach { case (vs, w) => vs.foreach(v => weighted += ((v, w))) }
    require(weighted.nonEmpty, "sample-k merge with no samples")
    val sorted = weighted.toArray.sortBy(-_._1)
    var cum = 0.0
    var i = 0
    while (i < sorted.length) {
      cum += sorted(i)._2
      if (cum >= t - 1e-9) return sorted(i)._1
      i += 1
    }
    sorted(sorted.length - 1)._1
  }

  /** Mann–Whitney over a boxed, stably sorted concatenation of x and y. */
  private def refPValueGreater(x: Array[Double], y: Array[Double]): Double = {
    val nx = x.length.toLong
    val ny = y.length.toLong
    if (nx < 3 || ny < 3) return 1.0
    val all = new Array[(Double, Int)]((nx + ny).toInt)
    var i = 0
    while (i < nx) { all(i) = (x(i), 0); i += 1 }
    var j = 0
    while (j < ny) { all(i + j) = (y(j), 1); j += 1 }
    val sorted = all.sortBy(_._1)
    var rankSumX = 0.0
    var tieCorrection = 0.0
    var k = 0
    while (k < sorted.length) {
      var e = k
      while (e + 1 < sorted.length && sorted(e + 1)._1 == sorted(k)._1) e += 1
      val t = (e - k + 1).toDouble
      val midrank = (k + 1 + e + 1) / 2.0
      var m = k
      while (m <= e) { if (sorted(m)._2 == 0) rankSumX += midrank; m += 1 }
      tieCorrection += t * t * t - t
      k = e + 1
    }
    val u = rankSumX - nx * (nx + 1) / 2.0
    val n = (nx + ny).toDouble
    val meanU = nx * ny / 2.0
    val varU = nx * ny / 12.0 * ((n + 1) - tieCorrection / (n * (n - 1)))
    if (varU <= 0) return 1.0
    val z = (u - meanU - 0.5) / math.sqrt(varU)
    1.0 - Stat.normalCdf(z)
  }

  // Values drawn from a small tie-heavy set (with ±0.0) or a continuous range.
  private val value: Gen[Double] = Gen.frequency(
    3 -> Gen.oneOf(0.0, -0.0, 1.0, 2.0, 5.0, -3.0, 1e300),
    2 -> Gen.choose(-4, 40).map(_ / 4.0),
    2 -> Gen.choose(-1e6, 1e6),
  )

  private def descending(c: List[Double]): List[Double] = {
    val a = c.toArray
    java.util.Arrays.sort(a)
    a.reverse.toList
  }

  // 1-70 caches of 0-12 values, each non-increasing under Double.compare.
  private val caches: Gen[List[List[Double]]] = for {
    n <- Gen.choose(1, 70)
    cs <- Gen.listOfN(n, Gen.choose(0, 12).flatMap(Gen.listOfN(_, value)))
  } yield cs.map(descending)

  private val weight: Gen[Double] =
    Gen.oneOf(Gen.choose(1, 5).map(_.toDouble), Gen.choose(0.05, 4.0))

  /** Caches, one weight per cache, and a depth from 1 to past the total. */
  private val mergeInput: Gen[(List[List[Double]], List[Double], Long)] = for {
    cs <- caches
    ws <- Gen.listOfN(cs.length, weight)
    t <- Gen.choose(1L, cs.iterator.map(_.length).sum + 5L)
  } yield (cs, ws, t)

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** Both must fail on empty input, or agree bit for bit. */
  private def sameOutcome(a: => Double, b: => Double): Boolean =
    (scala.util.Try(a).toOption, scala.util.Try(b).toOption) match {
      case (Some(x), Some(y)) => bits(x) == bits(y)
      case (None, None) => true
      case _ => false
    }

  test("mergeTopK equals the sort-based merge bit for bit") {
    // no shrinking: shrunk values would no longer be sorted
    check(Prop.forAllNoShrink(mergeInput) { case (cs, _, t) =>
      val in = cs.map(_.toArray)
      sameOutcome(FewK.mergeTopK(in, t), refMergeTopK(in, t))
    })
  }

  test("mergeSampleK equals the stable-sort merge bit for bit") {
    check(Prop.forAllNoShrink(mergeInput) { case (cs, ws, t) =>
      val in = cs.map(_.toArray).zip(ws)
      sameOutcome(FewK.mergeSampleK(in, t), refMergeSampleK(in, t))
    })
  }

  test("both merges reject caches that are all empty") {
    val empty = Seq(Array.emptyDoubleArray, Array.emptyDoubleArray)
    intercept[IllegalArgumentException](FewK.mergeTopK(empty, 1))
    intercept[IllegalArgumentException](FewK.mergeSampleK(empty.map((_, 1.0)), 1))
  }

  test("pValueGreater equals the boxed midrank computation bit for bit on unsorted input") {
    val sample = Gen.choose(0, 40).flatMap(Gen.listOfN(_, value))
    check(Prop.forAll(sample, sample) { (x, y) =>
      bits(MannWhitney.pValueGreater(x.toArray, y.toArray)) ==
        bits(refPValueGreater(x.toArray, y.toArray))
    })
  }

  test("pValueGreater leaves its inputs unsorted") {
    val x = Array(3.0, 1.0, 2.0, 5.0)
    val y = Array(0.5, 4.0, 0.25)
    MannWhitney.pValueGreater(x, y)
    assert(x.sameElements(Array(3.0, 1.0, 2.0, 5.0)) && y.sameElements(Array(0.5, 4.0, 0.25)))
  }
}
