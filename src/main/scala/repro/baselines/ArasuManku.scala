package repro.baselines

import repro.core.{FreqSketch, SlidingQuantilePolicy, Stat}
import scala.collection.mutable.ArrayBuffer

/** AM — Arasu & Manku (PODS'04) sliding-window quantiles (paper §5.1 (3)).
  *
  * Multi-resolution block summaries over a dyadic hierarchy: a level-l block
  * spans 2^l consecutive sub-windows (aligned to the absolute sub-window
  * index). Level-0 blocks are equi-spaced coresets of each sub-window at
  * twice CMQS's precision (AM's per-level error-budget split gives the
  * finest levels the tightest budget — this is why AM is more accurate *and*
  * stores more than CMQS in the paper's Table 1). A level-(l+1) block is the
  * weighted merge of its two children, retained alongside them, so a window
  * query can greedily cover the window's sub-window range with the largest
  * aligned sealed blocks and read the weighted rank off far fewer summaries.
  *
  * Rank error: every retained entry stands for w = P/c ranks with positional
  * error ≤ w/2 within its sub-window, so a cover of n sub-windows answers
  * within n·w/2 = ε·N/4 ranks deterministically.
  */
final class ArasuManku(
    val windowSize: Long,
    val period: Long,
    val phis: Array[Double],
    val epsilon: Double,
) extends SlidingQuantilePolicy {
  require(windowSize % period == 0, "window must be a multiple of period")
  require(epsilon > 0 && epsilon < 1, s"epsilon must be in (0,1), got $epsilon")

  private val nSub = (windowSize / period).toInt
  private val levels = {
    var l = 0
    while ((1 << l) < nSub) l += 1
    math.max(1, l)
  }
  // per-sub-window capacity at ε/2 precision (double CMQS's ⌊εP/2⌋)
  private val capacity = math.min(period,
    2L * math.max(math.floor(epsilon * period / 2.0).toLong,
      math.ceil(1.0 / epsilon).toLong)).toInt

  /** Sealed block: [startSub, endSub) in absolute sub-window indices; sorted
    * coreset entries, each standing for `period/capacity` elements.
    */
  private final case class Block(level: Int, startSub: Long, endSub: Long,
                                 values: Array[Double])

  private val sealedBlocks = new ArrayBuffer[Block]()
  private val inflight = new FreqSketch
  private var inflightPeak = 0L
  private var elementsSeen = 0L

  override def name: String = "AM"

  override def insert(v: Double): Unit = {
    inflight.accumulate(v)
    elementsSeen += 1
    if (elementsSeen % period == 0) {
      val subIdx = elementsSeen / period // completed sub-windows
      sealedBlocks += Block(0, subIdx - 1, subIdx, Cmqs.coreset(inflight, capacity))
      inflightPeak = inflight.observedSpace
      inflight.clear()
      // cascade: whenever two aligned siblings exist, retain their merge too
      var l = 0
      while (l < levels && subIdx % (1L << (l + 1)) == 0) {
        val span = 1L << l
        val leftStart = subIdx - 2 * span
        val left = sealedBlocks.find(b => b.level == l && b.startSub == leftStart)
        val right = sealedBlocks.find(b => b.level == l && b.startSub == leftStart + span)
        (left, right) match {
          case (Some(a), Some(b)) =>
            val merged = new Array[Double](a.values.length + b.values.length)
            System.arraycopy(a.values, 0, merged, 0, a.values.length)
            System.arraycopy(b.values, 0, merged, a.values.length, b.values.length)
            java.util.Arrays.sort(merged)
            sealedBlocks += Block(l + 1, leftStart, subIdx, merged)
          case _ =>
        }
        l += 1
      }
      // evict blocks that ended before the current window start
      val windowStart = subIdx - nSub
      var i = sealedBlocks.length - 1
      while (i >= 0) {
        if (sealedBlocks(i).endSub <= windowStart) sealedBlocks.remove(i)
        i -= 1
      }
    }
  }

  /** Greedy dyadic cover of [lo, hi) by sealed blocks, largest-first. */
  private def cover(lo: Long, hi: Long): Seq[Block] = {
    val out = new ArrayBuffer[Block]()
    var p = lo
    while (p < hi) {
      val candidates = sealedBlocks.filter(b => b.startSub == p && b.endSub <= hi)
      require(candidates.nonEmpty, s"no sealed block starting at sub-window $p")
      val best = candidates.maxBy(_.endSub)
      out += best
      p = best.endSub
    }
    out.toSeq
  }

  override def evaluate(): Array[Double] = {
    val subIdx = elementsSeen / period
    require(subIdx >= nSub && elementsSeen % period == 0,
      "evaluate requires a full window at a period boundary")
    val blocks = cover(subIdx - nSub, subIdx)
    val weight = period.toDouble / capacity
    val merged = new Array[Double](blocks.iterator.map(_.values.length).sum)
    var k = 0
    blocks.foreach { b =>
      System.arraycopy(b.values, 0, merged, k, b.values.length)
      k += b.values.length
    }
    java.util.Arrays.sort(merged)
    phis.map { phi =>
      val target = Stat.rankOf(phi, windowSize)
      val pos = math.min(merged.length - 1,
        math.max(0, math.floor((target - 1).toDouble / weight).toInt))
      merged(pos)
    }
  }

  override def observedSpace: Long =
    sealedBlocks.iterator.map(_.values.length.toLong).sum +
      math.max(inflight.observedSpace, inflightPeak)

  /** All retained levels over the window plus the in-flight sub-window. */
  override def analyticalSpace: Long =
    (levels + 1).toLong * nSub * capacity + period
}
