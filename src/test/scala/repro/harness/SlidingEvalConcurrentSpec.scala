package repro.harness

import java.lang.Double.doubleToRawLongBits
import java.util.concurrent.atomic.AtomicReference
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{ArasuManku, Cmqs, ExactSliding, MomentSketchPolicy, RandomSampling}
import repro.core.{FewKConfig, Qlove, SlidingQuantilePolicy, Stat}
import repro.data.Telemetry
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** The concurrent pass (one replay task per policy, the oracle built
  * alongside, one truth pass after) against the serial pass it replaced,
  * compared as raw bits; and its failure and thread behaviour.
  */
class SlidingEvalConcurrentSpec extends AnyFunSuite {
  import SlidingEval.PolicyResult

  private val phis = Array(0.5, 0.9, 0.99, 0.999)

  /** The serial pass: every policy and the oracle advance together, event by
    * event, and each policy is evaluated and scored at its own boundaries.
    */
  private def serialPass(data: Array[Double], windowSize: Long, step: Long, phis: Array[Double],
                         policies: Seq[(SlidingQuantilePolicy, Long)]): Seq[PolicyResult] = {
    require(step > 0 && windowSize % step == 0 &&
      policies.forall(p => p._2 % step == 0 && windowSize % p._2 == 0),
      s"window must be a multiple of every period, and each period of the smallest, $step")
    require(data.length >= windowSize, s"need at least $windowSize elements, got ${data.length}")
    val (pols, periods) = (policies.map(_._1).toArray, policies.map(_._2).toArray)
    val truth = new WindowOracle(data)
    val sumAbsRel = Array.ofDim[Double](pols.length, phis.length)
    val sumRankErr = Array.ofDim[Double](pols.length, phis.length)
    val sumSpace = new Array[Long](pols.length)
    val estimates, exacts = pols.map(_ => new ArrayBuffer[Array[Double]]())
    var i = 0
    while (i < data.length) {
      truth.insert(i)
      if (i >= windowSize) truth.expire(i - windowSize.toInt)
      pols.foreach(_.insert(data(i)))
      i += 1
      if (i % step == 0 && i >= windowSize) {
        val exact = truth.quantiles(phis)
        for (p <- pols.indices if i % periods(p) == 0) {
          val est = pols(p).evaluate()
          estimates(p) += est
          exacts(p) += exact
          var q = 0
          while (q < phis.length) {
            val b = exact(q)
            sumAbsRel(p)(q) += (if (b != 0.0) math.abs(est(q) - b) / math.abs(b) else math.abs(est(q) - b))
            val r = Stat.rankOf(phis(q), windowSize)
            val (lo, hi) = truth.rankInterval(est(q))
            val dist = if (r >= lo && r <= hi) 0L else math.min(math.abs(r - lo), math.abs(r - hi))
            sumRankErr(p)(q) += dist.toDouble / windowSize
            q += 1
          }
          sumSpace(p) += pols(p).observedSpace
        }
      }
    }
    pols.indices.map { p =>
      val evals = estimates(p).length
      PolicyResult(
        policy = pols(p).name,
        phis = phis,
        valueErrorPct = phis.indices.map(q => 100.0 * sumAbsRel(p)(q) / evals).toArray,
        rankError = phis.indices.map(q => sumRankErr(p)(q) / evals).toArray,
        observedSpace = sumSpace(p) / evals,
        analyticalSpace = pols(p).analyticalSpace,
        evaluations = evals,
        estimates = estimates(p).toArray,
        exacts = exacts(p).toArray,
      )
    }
  }

  /** Every policy kind the tables run, by name, built for window N and period P. */
  private val kinds: Map[String, (Long, Long) => SlidingQuantilePolicy] = Map(
    "qlove" -> ((n, p) => new Qlove(n, p, phis, FewKConfig.disabled(phis))),
    "qlove-0" -> ((n, p) => new Qlove(n, p, phis, FewKConfig.disabled(phis), quantizeDigits = 0)),
    "qlove-top" -> ((n, p) => new Qlove(n, p, phis, FewKConfig.topOnly(n, p, phis, 0.5))),
    "qlove-top-0" -> ((n, p) => new Qlove(n, p, phis, FewKConfig.topOnly(n, p, phis, 0.1), quantizeDigits = 0)),
    "qlove-sample" -> ((n, p) => new Qlove(n, p, phis, FewKConfig.sampleOnly(n, phis, 0.5))),
    "qlove-sample-0" -> ((n, p) => new Qlove(n, p, phis, FewKConfig.sampleOnly(n, phis, 0.1), quantizeDigits = 0)),
    "cmqs" -> ((n, p) => new Cmqs(n, p, phis, 0.05)),
    "am" -> ((n, p) => new ArasuManku(n, p, phis, 0.05)),
    "random" -> ((n, p) => new RandomSampling(n, p, phis, 0.05)),
    "moment" -> ((n, p) => new MomentSketchPolicy(n, p, phis, 8)),
    "exact" -> ((n, _) => new ExactSliding(n, phis)),
  )

  /** Window N = m·2^a, a stream of N plus up to 4N events, optionally with
    * bursts, and 1-5 policies, each under a period N/2^j (j ≤ 4).
    */
  private final case class Case(n: Long, len: Int, seed: Long, burst: Boolean,
                                picks: List[(String, Long)])

  private val cases: Gen[Case] = for {
    n <- Gen.zip(Gen.oneOf(1L, 3L), Gen.choose(7, 10)).map { case (m, a) => m << a }
    len <- Gen.choose(n.toInt, 5 * n.toInt)
    seed <- Gen.choose(1L, 1000L)
    burst <- Gen.oneOf(false, true)
    k <- Gen.choose(1, 5)
    picks <- Gen.listOfN(k, Gen.zip(Gen.oneOf(kinds.keys.toSeq.sorted), Gen.choose(0, 4).map(n >> _)))
  } yield Case(n, len, seed, burst, picks)

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(doubleToRawLongBits)
  private def bits2(a: Array[Array[Double]]): Seq[Seq[Long]] = a.toSeq.map(bits)

  private def same(a: PolicyResult, b: PolicyResult): Boolean =
    a.policy == b.policy && bits(a.phis) == bits(b.phis) &&
      bits(a.valueErrorPct) == bits(b.valueErrorPct) && bits(a.rankError) == bits(b.rankError) &&
      a.observedSpace == b.observedSpace && a.analyticalSpace == b.analyticalSpace &&
      a.evaluations == b.evaluations &&
      bits2(a.estimates) == bits2(b.estimates) && bits2(a.exacts) == bits2(b.exacts)

  test("the concurrent pass equals the serial pass bit for bit") {
    val prop = Prop.forAllNoShrink(cases) { c =>
      val plain = Telemetry.netmon(c.len, c.seed).toArray
      val step = c.picks.map(_._2).min
      val data = if (c.burst) Telemetry.injectBurst(plain, c.n, step, 0.999) else plain
      def policies = c.picks.map { case (kind, p) => kinds(kind)(c.n, p) -> p }
      val concurrent = SlidingEval.sweep(data, c.n, phis, policies)
      val serial = serialPass(data, c.n, step, phis, policies)
      concurrent.length == serial.length && concurrent.zip(serial).forall { case (a, b) => same(a, b) }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(150), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("run is the one-period pass, bit for bit") {
    val data = Telemetry.injectBurst(Telemetry.netmon(5000, 3L).toArray, 1024, 256, 0.999)
    def policies = Seq("qlove-sample", "random", "moment", "exact").map(kinds(_)(1024, 256))
    val concurrent = SlidingEval.run(data, 1024, 256, phis, policies)
    val serial = serialPass(data, 1024, 256, phis, policies.map(_ -> 256L))
    assert(concurrent.zip(serial).forall { case (a, b) => same(a, b) })
    assert(concurrent.map(_.evaluations) == Seq.fill(4)(16))
  }

  /** Answers the window's first value; its k-th evaluation throws `failure`
    * unless k is 0. Each evaluation takes `pauseMs` until `stop` is set.
    */
  private final class Scripted(k: Int, failure: => Throwable, pauseMs: Long = 0L)
      extends SlidingQuantilePolicy {
    @volatile var stop = false
    private var evaluations = 0
    override def name: String = "Scripted"
    override def phis: Array[Double] = SlidingEvalConcurrentSpec.this.phis
    override def insert(v: Double): Unit = ()
    override def evaluate(): Array[Double] = {
      evaluations += 1
      if (evaluations == k) throw failure
      if (!stop) Thread.sleep(pauseMs)
      phis.map(_ => 1.0)
    }
    override def observedSpace: Long = 0L
  }

  test("a policy's exception reaches the caller as is, without waiting for the other policies") {
    val data = Telemetry.netmon(3000, 5L).toArray
    for (failure <- Seq[() => Throwable](() => new IllegalStateException("evaluation 3 failed"),
                                         () => new StackOverflowError("evaluation 3 overflowed"))) {
      // the slow policy needs 201 × 20 ms ≈ 4 s; the failing one fails at once
      val slow = new Scripted(0, null, pauseMs = 20L)
      val pols = Seq(new Qlove(1000, 10, phis, FewKConfig.disabled(phis)), slow, new Scripted(3, failure()))
      val outcome = new AtomicReference[Throwable]()
      val caller = new Thread(() =>
        try { SlidingEval.run(data, 1000, 10, phis, pols); outcome.set(new AssertionError("no failure")) }
        catch { case t: Throwable => outcome.set(t) })
      caller.setDaemon(true)
      val t0 = System.nanoTime()
      caller.start()
      caller.join(10000)
      val waitedMs = (System.nanoTime() - t0) / 1000000
      slow.stop = true
      val expected = failure()
      val thrown = Option(outcome.get).getOrElse(fail(s"run still running after $waitedMs ms"))
      assert(thrown.getClass == expected.getClass && thrown.getMessage == expected.getMessage, thrown)
      assert(waitedMs < 2000, s"the failure took $waitedMs ms to reach the caller")
    }
  }

  test("a pass leaves no new non-daemon thread alive") {
    def nonDaemon = Thread.getAllStackTraces.keySet.asScala.filter(t => t.isAlive && !t.isDaemon).toSet
    val before = nonDaemon
    val data = Telemetry.netmonArray(300000, 9L)
    SlidingEval.sweep(data, 4096, phis, kinds.keys.toSeq.sorted.map(k => kinds(k)(4096, 1024) -> 1024L))
    val born = nonDaemon -- before
    assert(born.isEmpty, born.map(_.getName))
  }
}
