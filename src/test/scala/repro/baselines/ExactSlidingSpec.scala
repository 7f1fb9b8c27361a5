package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Stat

class ExactSlidingSpec extends AnyFunSuite {
  private val phis = Array(0.1, 0.5, 0.9, 0.99)

  test("matches sort-based quantiles over the most recent window (property)") {
    val rnd = new scala.util.Random(31)
    val pol = new ExactSliding(500, phis)
    val data = Array.fill(3000)(rnd.nextInt(80).toDouble)
    data.zipWithIndex.foreach { case (v, i) =>
      pol.insert(v)
      if (i >= 499 && (i + 1) % 250 == 0) {
        val window = data.slice(i - 499, i + 1)
        val want = phis.map(Stat.exactQuantile(window, _))
        assert(pol.evaluate().sameElements(want), s"at element ${i + 1}")
      }
    }
  }

  test("evaluate on a partially filled window fails") {
    val pol = new ExactSliding(100, phis)
    (1 to 50).foreach(i => pol.insert(i.toDouble))
    intercept[IllegalArgumentException](pol.evaluate())
  }

  test("expired elements stop influencing results") {
    val pol = new ExactSliding(10, Array(0.5))
    (1 to 10).foreach(_ => pol.insert(1000.0))
    assert(pol.evaluate()(0) == 1000.0)
    (1 to 10).foreach(_ => pol.insert(5.0))
    assert(pol.evaluate()(0) == 5.0)
  }

  test("rankInterval reflects the live window") {
    val pol = new ExactSliding(4, Array(0.5))
    Seq(1.0, 2.0, 2.0, 9.0).foreach(pol.insert)
    assert(pol.rankInterval(2.0) == (2L, 3L))
    pol.insert(2.0) // evicts the 1.0
    assert(pol.rankInterval(2.0) == (1L, 3L))
  }

  test("space shrinks with duplicates but ring buffer dominates") {
    val dup = new ExactSliding(1000, phis)
    (1 to 1000).foreach(_ => dup.insert(7.0))
    assert(dup.observedSpace == 1000 + 2) // ring + one tree node
    val uniq = new ExactSliding(1000, phis)
    (1 to 1000).foreach(i => uniq.insert(i.toDouble))
    assert(uniq.observedSpace == 1000 + 2000)
  }

  test("analyticalSpace is 3N") {
    assert(new ExactSliding(1000, phis).analyticalSpace == 3000)
  }

  // The window's frequency tree, tested directly.
  private def sketchOf(vs: Seq[Double]): ExactSliding.FreqTree = {
    val s = new ExactSliding.FreqTree
    vs.foreach(s.accumulate)
    s
  }

  test("deaccumulate removes one occurrence and deletes empty nodes") {
    val s = sketchOf(Seq(1.0, 2.0, 2.0))
    s.deaccumulate(2.0)
    assert(s.count == 2 && s.uniqueCount == 2)
    s.deaccumulate(2.0)
    assert(s.count == 1 && s.uniqueCount == 1)
    intercept[IllegalArgumentException](s.deaccumulate(2.0))
  }

  test("accumulate/deaccumulate round-trip preserves quantiles") {
    val rnd = new scala.util.Random(8)
    val base = Array.fill(200)(rnd.nextInt(30).toDouble)
    val extra = Array.fill(100)(rnd.nextInt(30).toDouble)
    val s = sketchOf(base.toSeq)
    val before = s.computeResult(Array(0.25, 0.5, 0.75))
    extra.foreach(s.accumulate)
    extra.foreach(s.deaccumulate)
    assert(s.computeResult(Array(0.25, 0.5, 0.75)).sameElements(before))
  }

  test("rankInterval for present and absent values") {
    val s = sketchOf(Seq(1.0, 2.0, 2.0, 5.0))
    assert(s.rankInterval(1.0) == (1L, 1L))
    assert(s.rankInterval(2.0) == (2L, 3L))
    assert(s.rankInterval(5.0) == (4L, 4L))
    assert(s.rankInterval(3.0) == (3L, 4L)) // would sit between ranks 3 and 4
    assert(s.rankInterval(0.5) == (0L, 1L))
    assert(s.rankInterval(9.0) == (4L, 5L))
  }

  test("rankInterval sums are consistent with count (property)") {
    val rnd = new scala.util.Random(9)
    val vs = Array.fill(300)(rnd.nextInt(40).toDouble)
    val s = sketchOf(vs.toSeq)
    vs.distinct.foreach { v =>
      val (lo, hi) = s.rankInterval(v)
      val below = vs.count(_ < v)
      val at = vs.count(_ == v)
      assert(lo == below + 1 && hi == below + at, s"v=$v")
    }
  }
}
