package repro.harness

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{Cmqs, ExactSliding, RandomSampling}
import repro.core.{FewKConfig, Qlove, SlidingQuantilePolicy}
import repro.data.Telemetry

class SlidingEvalSweepSpec extends AnyFunSuite {
  private val phis = Array(0.5, 0.9, 0.99, 0.999)
  private val n = 4096L
  private val periods = Seq(n, n / 2, n / 8)

  private def policies: Seq[(SlidingQuantilePolicy, Long)] = periods.flatMap(p => Seq(
    new Qlove(n, p, phis, FewKConfig.disabled(phis)) -> p,
    new Cmqs(n, p, phis, 0.05) -> p,
    new RandomSampling(n, p, phis, 0.1) -> p))

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(doubleToRawLongBits)
  private def bits2(a: Array[Array[Double]]): Seq[Seq[Long]] = a.toSeq.map(bits)

  test("a sweep over mixed periods equals one run per policy, bit for bit") {
    val data = Telemetry.netmon(6 * n + 777, 13L).toArray
    val swept = SlidingEval.sweep(data, n, phis, policies)
    val alone = policies.map { case (pol, p) => SlidingEval.run(data, n, p, phis, Seq(pol)).head }
    assert(swept.length == alone.length)
    swept.zip(alone).foreach { case (s, r) =>
      assert(s.policy == r.policy)
      assert(bits2(s.estimates) == bits2(r.estimates), s.policy)
      assert(bits2(s.exacts) == bits2(r.exacts), s.policy)
      assert(bits(s.valueErrorPct) == bits(r.valueErrorPct), s.policy)
      assert(bits(s.rankError) == bits(r.rankError), s.policy)
      assert(s.observedSpace == r.observedSpace, s.policy)
      assert(s.analyticalSpace == r.analyticalSpace, s.policy)
      assert(s.evaluations == r.evaluations, s.policy)
    }
    assert(swept.map(_.evaluations).distinct.sorted == Seq(6, 11, 42))
  }

  test("a sweep rejects a period that does not divide N") {
    intercept[IllegalArgumentException](SlidingEval.sweep(new Array[Double](1000), 1000, phis,
      Seq(new ExactSliding(1000, phis) -> 250L, new ExactSliding(1000, phis) -> 750L)))
  }

  test("a sweep rejects periods that are not multiples of the smallest") {
    intercept[IllegalArgumentException](SlidingEval.sweep(new Array[Double](1200), 1200, phis,
      Seq(new ExactSliding(1200, phis) -> 400L, new ExactSliding(1200, phis) -> 300L)))
  }

  test("a sweep rejects one policy instance passed twice, before it sees an event") {
    val data = Telemetry.netmon(2 * n, 13L).toArray
    val pol = new Qlove(n, 1024, phis, FewKConfig.disabled(phis))
    val e = intercept[IllegalArgumentException](SlidingEval.sweep(data, n, phis, Seq(pol -> 1024L, pol -> 2048L)))
    assert(e.getMessage.contains("only once"))
    intercept[IllegalArgumentException](SlidingEval.run(data, n, 1024, phis, Seq(pol, pol)))
    assert(!pol.windowFull)
  }

  test("a sweep needs a policy") {
    intercept[IllegalArgumentException](SlidingEval.sweep(new Array[Double](1000), 1000, phis, Nil))
  }
}
