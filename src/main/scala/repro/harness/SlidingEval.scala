package repro.harness

import repro.core.{SlidingQuantilePolicy, Stat}
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.{Await, Future, duration}

/** Streaming-engine substrate: drives policies element-by-element with the
  * paper's windowing semantics (window size N, period P, evaluate on every
  * period boundary once a full window exists) and measures the paper's three
  * metrics against an exact ground truth, a [[WindowOracle]] over the raw
  * (unquantized) values. Each policy replays the stream on its own thread of
  * the global pool while the oracle is built; one truth pass follows:
  *
  *   - average relative value error  (1/n)·Σ |a_i - b_i| / b_i  (in %),
  *   - average relative rank error   e' = (1/n)·Σ |r - r'_i| / N,
  *   - observed space ("number of variables"), averaged over evaluations.
  */
object SlidingEval {

  /** Per-φ aggregate over all window evaluations of one policy. */
  final case class PolicyResult(
      policy: String,
      phis: Array[Double],
      valueErrorPct: Array[Double],
      rankError: Array[Double],
      observedSpace: Long,
      analyticalSpace: Long,
      evaluations: Int,
      estimates: Array[Array[Double]], // [evaluation][φ]
      exacts: Array[Array[Double]],    // [evaluation][φ]
  )

  /** Run `policies` over `data` under an (N, P) sliding window. All policies
    * see the identical element sequence; with none, the ground truth is still
    * evaluated at every boundary.
    */
  def run(data: Array[Double], windowSize: Long, period: Long,
          phis: Array[Double], policies: Seq[SlidingQuantilePolicy]): Seq[PolicyResult] =
    pass(data, windowSize, period, phis, policies.map(_ -> period))

  /** A table's (N, P) sweep over one stream: each policy runs under its own
    * period, and one ground-truth pass evaluates at the boundaries of the
    * smallest. Each policy is evaluated, and its errors and space summed,
    * only at its own boundaries, so its result equals a [[run]] of it alone.
    */
  def sweep(data: Array[Double], windowSize: Long, phis: Array[Double],
            policies: Seq[(SlidingQuantilePolicy, Long)]): Seq[PolicyResult] = {
    require(policies.nonEmpty, "a sweep needs at least one policy")
    pass(data, windowSize, policies.map(_._2).min, phis, policies)
  }

  private def pass(data: Array[Double], windowSize: Long, step: Long, phis: Array[Double],
                   policies: Seq[(SlidingQuantilePolicy, Long)]): Seq[PolicyResult] = {
    require(step > 0 && windowSize % step == 0 &&
      policies.forall(p => p._2 % step == 0 && windowSize % p._2 == 0),
      s"window must be a multiple of every period, and each period of the smallest, $step")
    require(data.length >= windowSize, s"need at least $windowSize elements, got ${data.length}")
    val (pols, periods) = (policies.map(_._1).toArray, policies.map(_._2).toArray)
    require(pols.indices.forall(p => pols.indexWhere(_ eq pols(p)) == p), "a policy instance may appear only once")
    // The policies share no state, so each replays on its own pool thread while
    // another builds the oracle; the zip fails as soon as any task fails.
    val oracle = task(new WindowOracle(data))
    val replays = Future.sequence(pols.indices.map(p => task(replay(data, windowSize, periods(p), pols(p)))))
    val (truth, recorded) =
      try Await.result(oracle.zip(replays), duration.Duration.Inf)
      catch { case f: TaskFailed => throw f.getCause }
    val sumAbsRel = Array.ofDim[Double](pols.length, phis.length)
    val sumRankErr = Array.ofDim[Double](pols.length, phis.length)
    val sumSpace = new Array[Long](pols.length)
    val exacts = pols.map(_ => new ArrayBuffer[Array[Double]]())
    var i = 0
    while (i < data.length) {
      truth.insert(i)
      if (i >= windowSize) truth.expire(i - windowSize.toInt)
      i += 1
      if (i % step == 0 && i >= windowSize) {
        val exact = truth.quantiles(phis)
        for (p <- pols.indices if i % periods(p) == 0) {
          val (est, space) = recorded(p)(exacts(p).length)
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
          sumSpace(p) += space
        }
      }
    }
    pols.indices.map { p =>
      val evals = exacts(p).length
      PolicyResult(
        policy = pols(p).name,
        phis = phis,
        valueErrorPct = phis.indices.map(q => 100.0 * sumAbsRel(p)(q) / evals).toArray,
        rankError = phis.indices.map(q => sumRankErr(p)(q) / evals).toArray,
        observedSpace = sumSpace(p) / evals,
        analyticalSpace = pols(p).analyticalSpace,
        evaluations = evals,
        estimates = recorded(p).map(_._1),
        exacts = exacts(p).toArray,
      )
    }
  }

  /** Boxes whatever `body` throws, so that even a fatal error fails the future
    * (which would otherwise never complete); the caller rethrows the cause.
    */
  private final class TaskFailed(cause: Throwable) extends Exception(cause)
  private def task[A](body: => A): Future[A] =
    Future(try body catch { case t: Throwable => throw new TaskFailed(t) })

  /** Feeds every event to `pol`; at each of its period boundaries once a
    * window is full, records its estimates and observed space.
    */
  private def replay(data: Array[Double], windowSize: Long, period: Long,
                     pol: SlidingQuantilePolicy): Array[(Array[Double], Long)] = {
    val out = new ArrayBuffer[(Array[Double], Long)]()
    var i = 0
    while (i < data.length) {
      pol.insert(data(i))
      i += 1
      if (i % period == 0 && i >= windowSize) out += (pol.evaluate() -> pol.observedSpace)
    }
    out.toArray
  }
}
