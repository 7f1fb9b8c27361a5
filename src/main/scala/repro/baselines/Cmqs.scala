package repro.baselines

import repro.core.{FreqSketch, SlidingQuantilePolicy, Stat}
import scala.collection.mutable.ArrayDeque

/** CMQS — Continuously Maintaining Quantile Summaries (Lin et al., ICDE'04;
  * paper §5.1 policy (2), §5.2 throughput description).
  *
  * Following the paper's description: "each sub-window creates a data
  * structure, namely a sketch, and all active sketches are combined to
  * compute approximate quantiles over a sliding window. The capacity of each
  * sub-window is ⌊εP/2⌋." Each sealed sub-window is summarized by an
  * equi-spaced coreset of c = ⌊εP/2⌋ order statistics (rank spacing P/c =
  * 2/ε), each entry standing for P/c elements; a window query walks the
  * weighted merge of the n active coresets. Per-sub-window rank error is at
  * most half the spacing, so the window answer is deterministically within
  * ε·N/2 ranks.
  *
  * The in-flight sub-window is held in the Level-1 kernel (Trill-style state)
  * until sealing — that in-flight state plus the coresets is the runtime
  * space the paper's Table 1 reports.
  */
final class Cmqs(
    val windowSize: Long,
    val period: Long,
    val phis: Array[Double],
    val epsilon: Double,
) extends SlidingQuantilePolicy {
  require(windowSize % period == 0, "window must be a multiple of period")
  require(epsilon > 0 && epsilon < 1, s"epsilon must be in (0,1), got $epsilon")

  private val nSub = (windowSize / period).toInt
  // ⌊εP/2⌋ per the paper; the ⌈1/ε⌉ floor (inactive at the paper's P=16K,
  // ε=0.02 configuration) keeps rank spacing ≤ εP/2 so the ε·N bound also
  // holds for sub-windows smaller than 1/ε².
  private val capacity = math.min(period,
    math.max(math.floor(epsilon * period / 2.0).toLong,
      math.ceil(1.0 / epsilon).toLong)).toInt
  private val sealed_ = new ArrayDeque[Array[Double]](nSub + 1) // sorted coresets
  private val inflight = new FreqSketch
  private var inflightPeak = 0L

  override def name: String = "CMQS"

  override def insert(v: Double): Unit = {
    inflight.accumulate(v)
    if (inflight.count == period) {
      sealed_.append(Cmqs.coreset(inflight, capacity))
      if (sealed_.length > nSub) sealed_.removeHead()
      inflightPeak = inflight.observedSpace
      inflight.clear()
    }
  }

  override def evaluate(): Array[Double] = {
    require(sealed_.length == nSub, s"window not full: ${sealed_.length}/$nSub sketches")
    val weight = period.toDouble / capacity
    val merged = new Array[Double](nSub * capacity)
    var k = 0
    sealed_.foreach { cs =>
      System.arraycopy(cs, 0, merged, k, cs.length)
      k += cs.length
    }
    java.util.Arrays.sort(merged)
    phis.map { phi =>
      val target = Stat.rankOf(phi, windowSize)
      // entry j covers ranks (j·w, (j+1)·w]; pick the one containing target
      val pos = math.min(merged.length - 1,
        math.max(0, math.floor((target - 1).toDouble / weight).toInt))
      merged(pos)
    }
  }

  override def observedSpace: Long =
    sealed_.iterator.map(_.length.toLong).sum +
      math.max(inflight.observedSpace, inflightPeak)

  /** n active coresets of ⌊εP/2⌋ entries plus the in-flight sub-window. */
  override def analyticalSpace: Long = capacity.toLong * nSub + period
}

object Cmqs {

  /** The equi-spaced coreset of a sealed sub-window: the values at ranks
    * ⌈(j+0.5)·P/c⌉, j = 0..c-1. AM's level-0 blocks use it too.
    */
  def coreset(sketch: FreqSketch, capacity: Int): Array[Double] = {
    val total = sketch.count
    sketch.atRanks(Array.tabulate(capacity)(j =>
      math.min(total, math.ceil((j + 0.5) * total / capacity.toDouble).toLong)))
  }
}
