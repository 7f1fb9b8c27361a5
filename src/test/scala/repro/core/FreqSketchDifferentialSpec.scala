package repro.core

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import java.util.{TreeMap => JTreeMap}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.data.Telemetry

/** The dense-code kernel and the table-driven quantizer against the boxed
  * red-black tree and the per-call `math.pow` quantizer they replaced,
  * compared as raw bits.
  */
class FreqSketchDifferentialSpec extends AnyFunSuite {

  /** The tree kernel as it was: a `java.util.TreeMap` of boxed counts. */
  private final class RefSketch {
    private val tree = new JTreeMap[Double, Long]()
    private var total = 0L

    def accumulate(v: Double): Unit = {
      tree.merge(v, 1L, (a, b) => a + b)
      total += 1
    }

    def count: Long = total
    def uniqueCount: Int = tree.size
    def observedSpace: Long = 2L * tree.size

    def computeResult(phis: Array[Double]): Array[Double] = {
      require(total > 0, "computeResult on empty state")
      val order = phis.zipWithIndex.sortBy(_._1)
      val result = new Array[Double](phis.length)
      var runningCount = 0L
      var qi = 0
      var rank = Stat.rankOf(order(qi)._1, total)
      val it = tree.entrySet().iterator()
      while (it.hasNext && qi < order.length) {
        val e = it.next()
        runningCount += e.getValue
        while (qi < order.length && runningCount >= rank) {
          result(order(qi)._2) = e.getKey
          qi += 1
          if (qi < order.length) rank = Stat.rankOf(order(qi)._1, total)
        }
      }
      require(qi == order.length, "traversal ended before all quantiles answered")
      result
    }

    def topValues(m: Int): Array[Double] = {
      val out = new Array[Double](math.max(0L, math.min(m.toLong, total)).toInt)
      var k = 0
      val it = tree.descendingMap().entrySet().iterator()
      while (k < out.length) {
        val e = it.next()
        val v: Double = e.getKey
        var f = e.getValue
        while (f > 0 && k < out.length) { out(k) = v; k += 1; f -= 1 }
      }
      out
    }

    def entries: Array[(Double, Long)] = {
      val out = new scala.collection.mutable.ArrayBuffer[(Double, Long)](tree.size)
      val it = tree.entrySet().iterator()
      while (it.hasNext) { val e = it.next(); out += ((e.getKey, e.getValue)) }
      out.toArray
    }
  }

  /** The quantizer as it was, with `math.pow` per call. */
  private def refQuantize(v: Double, digits: Int): Double = {
    if (v == 0.0 || v.isNaN || v.isInfinite) return v
    val a = math.abs(v)
    val exp = math.floor(math.log10(a)).toInt - (digits - 1)
    val scale = math.pow(10.0, exp)
    val q = math.rint(a / scale) * scale
    if (v < 0) -q else q
  }

  private def bits(v: Double): Long = doubleToRawLongBits(v)
  private def bitsOf(vs: Array[Double]): Seq[Long] = vs.toSeq.map(bits)

  private def check(prop: Prop, cases: Int = 1000): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(cases), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** Exponents where the carry 1000·10^e and 100·10^(e+1) differ. */
  private val carryExps = (-306 to 304).filter(e =>
    1000.0 * math.pow(10.0, e) != 100.0 * math.pow(10.0, e + 1))

  private val netmon: Array[Array[Double]] =
    Array(7L, 11L, 13L).map(seed => Telemetry.netmon(1 << 16, seed).toArray)

  private val special: Gen[Double] = Gen.oneOf(
    0.0, -0.0, -1.0, -798.0, -1e-300, Double.PositiveInfinity, Double.NegativeInfinity,
    Double.NaN, Double.MinPositiveValue, -Double.MinPositiveValue, 1e-310, 3e-320,
    java.lang.Double.MIN_NORMAL, Double.MaxValue, 1e308, 999.5, 9995.0, 99950.0, 999.4999,
    100.0, 1000.0, 10000.0, 0.1, 0.01, 57.0, 1e-305, 9.995e307)

  private val carry: Gen[Double] = Gen.oneOf(carryExps).flatMap(e => Gen.oneOf(
    1000.0 * math.pow(10.0, e), 100.0 * math.pow(10.0, e + 1), 999.5 * math.pow(10.0, e),
    100.0 * math.pow(10.0, e), 999.0 * math.pow(10.0, e)))

  /** A double at any exponent, NaN payloads included. */
  private val anyBits: Gen[Double] = Gen.long.map(longBitsToDouble)

  private val value: Gen[Double] = Gen.frequency(
    3 -> special,
    3 -> carry,
    2 -> anyBits,
    2 -> Gen.choose(-1e6, 1e6),
    4 -> Gen.choose(1.0, 1e5).map(math.rint),
  )

  /** Values pre-quantized at 1, 2, 3 or 6 digits, or left raw. */
  private val digits: Gen[Int] = Gen.oneOf(0, 1, 2, 3, 6)

  /** A multiset with repeats: draws from a small pool of values. */
  private val mixed: Gen[Array[Double]] = for {
    pool <- Gen.choose(1, 40).flatMap(Gen.listOfN(_, value))
    d <- digits
    n <- Gen.choose(0, 400)
    picks <- Gen.listOfN(n, Gen.oneOf(pool))
  } yield picks.map(v => if (d > 0) refQuantize(v, d) else v).toArray

  /** A NetMon chunk of one of three seeds. */
  private val chunk: Gen[Array[Double]] = for {
    s <- Gen.choose(0, netmon.length - 1)
    len <- Gen.choose(1, 5000)
    from <- Gen.choose(0, netmon(s).length - len)
  } yield netmon(s).slice(from, from + len)

  private val events: Gen[Array[Double]] = Gen.frequency(2 -> mixed, 1 -> chunk)

  private val phis: Gen[Array[Double]] = Gen.choose(1, 6).flatMap(n =>
    Gen.listOfN(n, Gen.frequency(
      3 -> Gen.oneOf(0.0, 0.5, 0.9, 0.99, 0.999, 1.0), 2 -> Gen.choose(0.0, 1.0)))
  ).map(_.toArray)

  private def refOf(vs: Array[Double]): RefSketch = {
    val r = new RefSketch
    vs.foreach(r.accumulate)
    r
  }

  /** Every read of the kernel equals the tree's, as raw bits. */
  private def same(ref: RefSketch, sk: FreqSketch, ps: Array[Double]): Boolean =
    ref.count == sk.count &&
      ref.uniqueCount == sk.uniqueCount &&
      ref.observedSpace == sk.observedSpace &&
      ref.entries.toSeq.map { case (v, c) => (bits(v), c) } ==
        sk.entries.toSeq.map { case (v, c) => (bits(v), c) } &&
      (ref.count == 0 || bitsOf(ref.computeResult(ps)) == bitsOf(sk.computeResult(ps))) &&
      Seq(0, 1, 7, ref.count.toInt + 3).forall(m =>
        bitsOf(ref.topValues(m)) == bitsOf(sk.topValues(m)))

  test("accumulate equals the tree on every read, bit for bit") {
    check(Prop.forAllNoShrink(events, phis) { (vs, ps) =>
      val sk = new FreqSketch
      vs.foreach(sk.accumulate)
      same(refOf(vs), sk, ps)
    }, 2000)
  }

  test("accumulateQuantized equals the tree over the old quantizer's values") {
    check(Prop.forAllNoShrink(events, digits, phis) { (vs, d, ps) =>
      val sk = new FreqSketch
      vs.foreach(sk.accumulateQuantized(_, d))
      same(refOf(vs.map(v => if (d > 0) refQuantize(v, d) else v)), sk, ps)
    }, 2000)
  }

  test("a reused kernel equals a fresh tree after clear, and a seal goes stale") {
    check(Prop.forAllNoShrink(events, events, events, phis) { (a, b, c, ps) =>
      val sk = new FreqSketch
      a.foreach(sk.accumulateQuantized(_, 3))
      if (a.nonEmpty) sk.computeResult(Array(0.5))
      sk.clear()
      b.foreach(sk.accumulateQuantized(_, 3))
      val afterClear = same(refOf(b.map(refQuantize(_, 3))), sk, ps)
      c.foreach(sk.accumulate)
      afterClear && same(refOf(b.map(refQuantize(_, 3)) ++ c), sk, ps)
    })
  }

  test("quantize equals the per-call math.pow formula at every exponent") {
    check(Prop.forAll(anyBits, Gen.choose(1, 20)) { (v, d) =>
      bits(Quantizer.quantize(v, d)) == bits(refQuantize(v, d))
    }, 20000)
    (Seq(Int.MinValue, -100000, Int.MaxValue) ++ (-400 to 400)).foreach { e =>
      assert(bits(Quantizer.pow10(e)) == bits(math.pow(10.0, e)), s"e=$e")
    }
  }

  test("slots ascend with their values and each decodes to a value coded back to it") {
    var prev = Double.NegativeInfinity
    var s = 0
    while (s < FreqSketch.Slots) {
      val v = FreqSketch.decode(s)
      assert(v > prev && java.lang.Double.isFinite(v) && v >= java.lang.Double.MIN_NORMAL, s"slot $s")
      val back = FreqSketch.code(v)
      // only m = 100 may miss its slot, when log10 rounds 100·10^e below e + 2
      assert(back == s || (back == -1 && s % 900 == 0), s"slot $s decodes to $v, coded $back")
      prev = v
      s += 1
    }
  }

  test("the m = 1000 carry stays apart from 100·10^(e+1) wherever the two differ") {
    assert(carryExps.nonEmpty)
    carryExps.foreach { e =>
      val vs = Array(999.7 * math.pow(10.0, e), 100.0 * math.pow(10.0, e + 1),
        1000.0 * math.pow(10.0, e))
      val sk = new FreqSketch
      vs.foreach(sk.accumulateQuantized(_, 3))
      assert(same(refOf(vs.map(refQuantize(_, 3))), sk, Array(0.5, 1.0)), s"e=$e")
    }
  }
}
