package repro.core

/** QLOVE sliding-window quantile operator (paper §3 + §4).
  *
  * Two-level hierarchical processing: Level 1 runs a tumbling window of size
  * `period` over quantized values in a [[FreqSketch]]; on each period boundary
  * the sub-window is sealed into the [[Level2]] window and discarded. Level 2
  * keeps the `n = windowSize / period` most recent summaries, their per-φ
  * running sums and the §4.3 selection that `evaluate` answers with.
  */
final class Qlove(
    val windowSize: Long,
    val period: Long,
    val phis: Array[Double],
    val cfg: FewKConfig,
    val quantizeDigits: Int = 3,
) extends SlidingQuantilePolicy with Serializable {
  require(cfg.phis.sameElements(phis), "FewKConfig must be built for the same φ set")

  private val inflight = new FreqSketch
  private val level2 = new Level2(windowSize, period, cfg)
  private var treePeak = 0L // in-flight tree size at the last seal (runtime peak)

  override def name: String = "QLOVE"

  override def insert(v: Double): Unit = {
    inflight.accumulateQuantized(v, quantizeDigits)
    if (inflight.count == period) sealSubWindow()
  }

  private def sealSubWindow(): Unit = {
    level2.add(inflight.count, inflight.computeResult(phis), SubWindowSummary.pools(inflight, cfg))
    treePeak = inflight.observedSpace
    inflight.clear()
  }

  /** True once a full window of data has been summarized. */
  def windowFull: Boolean = level2.full

  override def evaluate(): Array[Double] = level2.evaluate()

  /** [[Level2.fewkObservedSpace]] of quantile index `i`. */
  def fewkObservedSpace(i: Int): Long = level2.fewkObservedSpace(i)

  /** Total few-k scalars across all quantiles. */
  def fewkObservedSpace: Long = phis.indices.map(fewkObservedSpace).sum

  override def observedSpace: Long =
    level2.observedSpace + // stored summaries, few-k caches, Level-2 {sum, count} per φ
      math.max(inflight.observedSpace, treePeak) // in-flight tree (runtime peak)

  /** Paper §3.2: l·(N/P) + O(P), with O(P) taken at its worst case. */
  override def analyticalSpace: Long = phis.length.toLong * (windowSize / period) + period
}
