package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FreqSketchSpec extends AnyFunSuite {

  private def sketchOf(vs: Seq[Double]): FreqSketch = {
    val s = new FreqSketch
    vs.foreach(s.accumulate)
    s
  }

  test("count and unique tracking") {
    val s = sketchOf(Seq(1.0, 2.0, 2.0, 3.0, 3.0, 3.0))
    assert(s.count == 6)
    assert(s.uniqueCount == 3)
    assert(s.observedSpace == 6) // 3 nodes x {value, count}
  }

  test("computeResult matches sort-based exact quantiles (property)") {
    val rnd = new scala.util.Random(7)
    (1 to 50).foreach { trial =>
      val n = 1 + rnd.nextInt(500)
      val vs = Array.fill(n)(math.floor(rnd.nextDouble() * 50)) // many duplicates
      val s = sketchOf(vs.toSeq)
      val phis = Array(0.01, 0.25, 0.5, 0.9, 0.99, 1.0)
      val got = s.computeResult(phis)
      val want = phis.map(Stat.exactQuantile(vs, _))
      assert(got.sameElements(want), s"trial $trial: ${got.toSeq} vs ${want.toSeq}")
    }
  }

  test("computeResult handles unsorted phi input, results align with input order") {
    val s = sketchOf((1 to 100).map(_.toDouble))
    val got = s.computeResult(Array(0.9, 0.1, 0.5))
    assert(got.sameElements(Array(90.0, 10.0, 50.0)))
  }

  test("computeResult with duplicate phis") {
    val s = sketchOf((1 to 10).map(_.toDouble))
    val got = s.computeResult(Array(0.5, 0.5))
    assert(got.sameElements(Array(5.0, 5.0)))
  }

  test("computeResult on empty state fails") {
    intercept[IllegalArgumentException](new FreqSketch().computeResult(Array(0.5)))
  }

  test("single-value stream answers that value at every quantile") {
    val s = sketchOf(Seq.fill(1000)(42.0))
    assert(s.uniqueCount == 1)
    assert(s.computeResult(Array(0.001, 0.5, 0.999)).forall(_ == 42.0))
  }

  test("topValues expands multiplicities in descending order") {
    val s = sketchOf(Seq(1.0, 9.0, 9.0, 7.0, 3.0))
    assert(s.topValues(4).sameElements(Array(9.0, 9.0, 7.0, 3.0)))
    assert(s.topValues(100).length == 5)
    assert(s.topValues(0).isEmpty)
  }

  test("entries returns ascending (value, count) pairs") {
    val s = sketchOf(Seq(3.0, 1.0, 3.0))
    assert(s.entries.toSeq == Seq((1.0, 1L), (3.0, 2L)))
  }

  test("clear resets to initial state") {
    val s = sketchOf(Seq(1.0, 2.0))
    s.clear()
    assert(s.count == 0 && s.uniqueCount == 0)
    s.accumulate(5.0)
    assert(s.computeResult(Array(0.5)).sameElements(Array(5.0)))
  }

  test("heavy duplication keeps space near constant") {
    val s = new FreqSketch
    (1 to 100000).foreach(i => s.accumulate((i % 7).toDouble))
    assert(s.uniqueCount == 7)
    assert(s.observedSpace == 14)
  }
}
