package repro.core

import scala.collection.mutable.ArrayDeque

/** QLOVE's Level 2 (paper §3, §4.3): the incremental window over the
  * `n = windowSize / period` most recent sealed sub-window summaries. The
  * driver operator ([[Qlove]]), the streaming operator (through `Qlove`) and
  * the Spark batch pipeline all slide this one class, so all three answer
  * with the same arithmetic, bit for bit.
  *
  * `add` seals a sub-window through [[SubWindowSummary.seal]] against its
  * predecessor's pools, accumulates its per-φ quantiles into the running
  * Σ y_i and deaccumulates the expired summary's, in O(l).
  *
  * `evaluate` selects, per φ (paper §4.3 "Selecting outcomes"):
  *   1. sample-k merge   — if sampling is enabled and any in-window sub-window
  *                         was flagged bursty by the Mann–Whitney test;
  *   2. top-k merge      — if top-k caching is enabled for φ (the
  *                         `P(1-φ) < T_s` trigger is applied when building
  *                         the [[FewKConfig]]);
  *   3. Level-2 mean     — otherwise (the §3 estimator y_a = (1/n) Σ y_i).
  */
final class Level2(windowSize: Long, period: Long, cfg: FewKConfig)
    extends Serializable {
  require(windowSize % period == 0, s"window $windowSize must be a multiple of period $period")

  private val nSub = (windowSize / period).toInt
  private val l = cfg.phis.length
  private val summaries = new ArrayDeque[SubWindowSummary](nSub + 1)
  private val sums = new Array[Double](l) // running Σ y_i per φ
  private var prevPools: Array[Array[Double]] = Array.fill(l)(Array.emptyDoubleArray)

  /** Seal the next sub-window from its `count`, exact per-φ `quantiles` and
    * [[SubWindowSummary.pools]], slide it in and expire the oldest summary.
    */
  def add(count: Long, quantiles: Array[Double], pools: Array[Array[Double]]): Unit = {
    val s = SubWindowSummary.seal(count, quantiles, pools, prevPools, cfg)
    prevPools = pools
    summaries.append(s)
    var i = 0
    while (i < l) { sums(i) += s.quantiles(i); i += 1 }
    if (summaries.length > nSub) {
      val old = summaries.removeHead()
      var j = 0
      while (j < l) { sums(j) -= old.quantiles(j); j += 1 }
    }
  }

  /** Empty the window after a missing sub-window, keeping the predecessor
    * pools: the next burst test compares with the last sub-window added.
    */
  def restart(): Unit = { summaries.clear(); java.util.Arrays.fill(sums, 0.0) }

  /** True once the window holds `n` summaries. */
  def full: Boolean = summaries.length == nSub

  /** Per-φ estimate for the current window. */
  def evaluate(): Array[Double] = {
    require(full, "evaluate before a full window was observed")
    Array.tabulate(l) { i =>
      val t = FewK.depthFromTop(windowSize, cfg.phis(i))
      if (cfg.sampleEnabled(i) && summaries.exists(_.bursty(i)))
        FewK.mergeSampleK(summaries.map(s => (s.samples(i),
          FewK.sampleWeight(math.min(cfg.poolSize(i).toLong, s.count).toInt,
            s.samples(i).length))), t)
      else if (cfg.topEnabled(i)) FewK.mergeTopK(summaries.map(_.topK(i)), t)
      else sums(i) / nSub
    }
  }

  /** Stored few-k scalars for quantile index `i` across the current window
    * (the per-quantile space the paper's Tables 3/4 report in parentheses).
    */
  def fewkObservedSpace(i: Int): Long =
    summaries.iterator.map(s => s.topK(i).length.toLong + s.samples(i).length.toLong).sum

  /** Stored summaries and few-k caches, plus the {sum, count} per φ. */
  def observedSpace: Long = summaries.iterator.map(_.observedSpace).sum + 2L * l
}
