package repro.harness

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.ExactSliding
import repro.core.Quantizer

/** The offline Fenwick oracle against the online red-black tree it replaced
  * as the harness's ground truth, after every event once a window is full.
  */
class WindowOracleSpec extends AnyFunSuite {

  private def check(prop: Prop, cases: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(cases), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** Raw bits, except that any NaN equals any NaN: the tree answers with
    * whichever NaN it keeps as its key, the oracle with the first in sorted
    * order.
    */
  private def same(a: Double, b: Double): Boolean =
    (a.isNaN && b.isNaN) || doubleToRawLongBits(a) == doubleToRawLongBits(b)

  private val nans: Gen[Double] =
    Gen.oneOf(Double.NaN, longBitsToDouble(0x7ff0000000000001L), longBitsToDouble(0xfff8000000000123L))

  private val special: Gen[Double] = Gen.oneOf(
    0.0, -0.0, -1.0, -798.0, -1e-300, Double.PositiveInfinity, Double.NegativeInfinity,
    Double.MinPositiveValue, -Double.MinPositiveValue, 1e-310, 3e-320, Double.MaxValue, 57.0)

  private val value: Gen[Double] = Gen.frequency(
    4 -> special,
    1 -> nans,
    2 -> Gen.choose(-1e6, 1e6),
    3 -> Gen.choose(1.0, 200.0).map(math.rint),
  )

  /** (N, a stream from a small pool, so heavy in duplicates, N to 3N long). */
  private val streams: Gen[(Int, Array[Double])] = for {
    n <- Gen.frequency(2 -> Gen.choose(1, 4), 3 -> Gen.choose(5, 60))
    pool <- Gen.choose(1, 12).flatMap(Gen.listOfN(_, value))
    extra <- Gen.frequency(1 -> Gen.const(0), 3 -> Gen.choose(1, 2 * n))
    data <- Gen.listOfN(n + extra, Gen.oneOf(pool))
  } yield (n, data.toArray)

  private val phis: Gen[Array[Double]] = Gen.choose(1, 5).flatMap(k =>
    Gen.listOfN(k, Gen.frequency(
      3 -> Gen.oneOf(0.0, 0.5, 0.9, 0.99, 0.999, 1.0), 2 -> Gen.choose(0.0, 1.0)))
  ).map(_.toArray)

  /** Probe values: the stream's own, and ones it may not hold, such as the
    * quantized values and means approximate policies answer with.
    */
  private def probes(data: Array[Double]): Gen[List[Double]] = {
    val own = Gen.oneOf(data.toSeq)
    Gen.listOfN(8, Gen.frequency(2 -> own, 1 -> value, 1 -> nans,
      1 -> own.map(Quantizer.quantize(_, 1)), 1 -> Gen.zip(own, own).map { case (a, b) => (a + b) / 2 }))
  }

  test("quantiles and rank intervals equal the tree's after every full-window event") {
    check(Prop.forAllNoShrink(streams, phis) { case ((n, data), ps) =>
      Prop.forAllNoShrink(probes(data)) { extra =>
        val tree = new ExactSliding(n, ps)
        val oracle = new WindowOracle(data)
        data.indices.forall { i =>
          tree.insert(data(i))
          oracle.insert(i)
          if (i >= n) oracle.expire(i - n)
          i + 1 < n || {
            val want = tree.evaluate()
            val got = oracle.quantiles(ps)
            want.indices.forall(q => same(want(q), got(q))) &&
            (want.toList ++ extra).forall(v => tree.rankInterval(v) == oracle.rankInterval(v))
          }
        }
      }
    }, 1500)
  }

  test("rank intervals follow the tree's rules for present, expired and absent values") {
    val oracle = new WindowOracle(Array(5.0, 1.0, 2.0, 2.0, -0.0, 0.0))
    (0 until 4).foreach(oracle.insert)
    assert(oracle.rankInterval(2.0) == (2L, 3L))
    assert(oracle.rankInterval(1.0) == (1L, 1L))
    assert(oracle.rankInterval(3.0) == (3L, 4L))
    oracle.expire(0)
    assert(oracle.rankInterval(5.0) == (3L, 4L)) // expired: count 0
    assert(oracle.rankInterval(0.0) == (0L, 1L)) // in the stream, not yet in the window
    assert(oracle.quantiles(Array(0.0, 0.5, 1.0)).toSeq == Seq(1.0, 2.0, 2.0))
    (4 until 6).foreach(oracle.insert)
    assert(oracle.rankInterval(-0.0) == (1L, 1L))
    assert(oracle.rankInterval(0.0) == (2L, 2L))
    assert(doubleToRawLongBits(oracle.quantiles(Array(0.2))(0)) == doubleToRawLongBits(-0.0))
  }
}
