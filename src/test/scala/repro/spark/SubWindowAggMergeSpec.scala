package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{FewKConfig, FreqSketch}
import repro.data.Telemetry

/** Spark's partial aggregation of [[SubWindowAgg]], without a SparkSession: a
  * sub-window's events split into random partitions, each reduced into its
  * own buffer, sent through Java serialization as the shuffle does, and
  * merged pairwise in random order, must equal one kernel over all events.
  */
class SubWindowAggMergeSpec extends AnyFunSuite {
  private val phis = Array(0.5, 0.9, 0.99, 0.999)
  private val netmon = Telemetry.netmon(1 << 16, 7).toArray
  // top-k on with the whole pool cached, pools of 0, 3, 40 and 200 values
  private val sizes = Array(0, 3, 40, 200)
  private val pooled = FewKConfig(phis, sizes, sizes, sizes.map(_ => 0))

  private val special: Gen[Double] =
    Gen.oneOf(0.0, -0.0, -5.0, Double.NaN, Double.PositiveInfinity, 1e-310, 999.5, 9995.0)

  private val case_ = for {
    len <- Gen.choose(1, 4000)
    from <- Gen.choose(0, netmon.length - len)
    extra <- Gen.choose(0, 20).flatMap(Gen.listOfN(_, special))
    digits <- Gen.oneOf(0, 3)
    parts <- Gen.choose(1, 8)
    seed <- Gen.long
  } yield (netmon.slice(from, from + len) ++ extra, digits, parts, seed)

  private def roundTrip(b: FreqSketch): FreqSketch = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(b)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject()
      .asInstanceOf[FreqSketch]
  }

  private def bits(vs: Seq[Double]): Seq[Long] = vs.map(java.lang.Double.doubleToRawLongBits)

  test("merging random partitions in random order equals one kernel (property)") {
    val prop = Prop.forAllNoShrink(case_) { case (events, digits, parts, seed) =>
      val rnd = new scala.util.Random(seed)
      val agg = new SubWindowAgg(pooled, digits)
      val shuffled = rnd.shuffle(events.toSeq)
      val buffers = scala.collection.mutable.ArrayBuffer.fill(parts)(agg.zero)
      shuffled.foreach(v => agg.reduce(buffers(rnd.nextInt(parts)), v))
      val pending = buffers.map(roundTrip)
      while (pending.length > 1) {
        val a = pending.remove(rnd.nextInt(pending.length))
        val b = pending.remove(rnd.nextInt(pending.length))
        pending += agg.merge(a, b)
      }
      val one = events.foldLeft(agg.zero)(agg.reduce)
      val (got, want) = (agg.finish(pending.head), agg.finish(one))
      got.count == want.count &&
        bits(got.quantiles) == bits(want.quantiles) &&
        got.pools.map(bits) == want.pools.map(bits) &&
        pending.head.entries.toSeq.map { case (v, c) => (java.lang.Double.doubleToRawLongBits(v), c) } ==
          one.entries.toSeq.map { case (v, c) => (java.lang.Double.doubleToRawLongBits(v), c) }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("an empty buffer serializes without its spare capacity") {
    val agg = new SubWindowAgg(FewKConfig.disabled(phis), 3)
    val b = agg.zero
    netmon.take(16384).foreach(agg.reduce(b, _))
    b.clear()
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(b)
    out.close()
    assert(bytes.size < 512, s"${bytes.size} bytes")
    assert(roundTrip(b).count == 0)
  }
}
