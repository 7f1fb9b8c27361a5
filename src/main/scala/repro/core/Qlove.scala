package repro.core

import scala.collection.mutable.ArrayDeque

/** QLOVE sliding-window quantile operator (paper §3 + §4).
  *
  * Two-level hierarchical processing: Level 1 runs a tumbling window of size
  * `period` over quantized values in a [[FreqSketch]]; on each period boundary
  * the sub-window is sealed into a [[SubWindowSummary]] and discarded. Level 2
  * keeps the `n = windowSize / period` most recent summaries and maintains,
  * per φ, the incremental {sum, count} of sub-window quantiles — accumulating
  * the new summary and deaccumulating the expired one in O(l).
  *
  * `evaluate` selects, per φ (paper §4.3 "Selecting outcomes"):
  *   1. sample-k merge   — if sampling is enabled and any in-window sub-window
  *                         was flagged bursty by the Mann–Whitney test;
  *   2. top-k merge      — if top-k caching is enabled for φ (the
  *                         `P(1-φ) < T_s` trigger is applied when building
  *                         the [[FewKConfig]]);
  *   3. Level-2 mean     — otherwise (the §3 estimator y_a = (1/n) Σ y_i).
  */
final class Qlove(
    val windowSize: Long,
    val period: Long,
    val phis: Array[Double],
    val cfg: FewKConfig,
    val quantizeDigits: Int = 3,
) extends SlidingQuantilePolicy with Serializable {
  require(windowSize % period == 0, s"window $windowSize must be a multiple of period $period")
  require(cfg.phis.sameElements(phis), "FewKConfig must be built for the same φ set")

  private val nSub = (windowSize / period).toInt
  private val inflight = new FreqSketch
  private val summaries = new ArrayDeque[SubWindowSummary](nSub + 1)
  private val sums = new Array[Double](phis.length) // Level-2 running Σ y_i
  private var prevPools: Array[Array[Double]] = phis.map(_ => Array.emptyDoubleArray)
  private var treePeak = 0L // in-flight tree size at the last seal (runtime peak)

  override def name: String = "QLOVE"

  override def insert(v: Double): Unit = {
    inflight.accumulateQuantized(v, quantizeDigits)
    if (inflight.count == period) sealSubWindow()
  }

  private def sealSubWindow(): Unit = {
    val pools = SubWindowSummary.pools(inflight, cfg)
    val s = SubWindowSummary.seal(inflight.count, inflight.computeResult(phis), pools,
      prevPools, cfg)
    prevPools = pools
    treePeak = inflight.observedSpace
    inflight.clear()
    summaries.append(s)
    var i = 0
    while (i < phis.length) { sums(i) += s.quantiles(i); i += 1 }
    if (summaries.length > nSub) {
      val old = summaries.removeHead()
      var j = 0
      while (j < phis.length) { sums(j) -= old.quantiles(j); j += 1 }
    }
  }

  /** True once a full window of data has been summarized. */
  def windowFull: Boolean = summaries.length == nSub

  override def evaluate(): Array[Double] = {
    require(windowFull, "evaluate before a full window was observed")
    Array.tabulate(phis.length)(i =>
      QloveEstimator.estimateAt(summaries, cfg, windowSize, i, sums(i) / nSub))
  }

  /** Stored few-k scalars for quantile index `i` across the current window
    * (the per-quantile space the paper's Tables 3/4 report in parentheses).
    */
  def fewkObservedSpace(i: Int): Long =
    summaries.iterator.map(s => s.topK(i).length.toLong + s.samples(i).length.toLong).sum

  /** Total few-k scalars across all quantiles. */
  def fewkObservedSpace: Long =
    phis.indices.map(fewkObservedSpace).sum

  override def observedSpace: Long =
    summaries.iterator.map(_.observedSpace).sum + // stored summaries + few-k caches
      2L * phis.length + // Level-2 {sum, count} per φ
      math.max(inflight.observedSpace, treePeak) // in-flight tree (runtime peak)

  /** Paper §3.2: l·(N/P) + O(P), with O(P) taken at its worst case. */
  override def analyticalSpace: Long = phis.length.toLong * nSub + period
}
