package repro.baselines

import repro.core.{SlidingQuantilePolicy, Stat}
import scala.collection.mutable.ArrayDeque

/** Random — sampling-based sliding-window quantiles (Luo et al., VLDBJ'16;
  * paper §5.1 policy (4)).
  *
  * Each sub-window keeps a uniform reservoir sample; the window answer reads
  * the weighted rank over the merged samples of the `n` sealed sub-windows.
  * The total sample budget follows the classic
  * `S = (1/ε²)·ln(1/δ)` bound (with δ = 1e-8 this lands at ~45K variables for
  * ε = 0.02 — the magnitude Table 1 reports), split evenly across
  * sub-windows. Rank error is bounded by ε·N with probability ≥ 1-δ.
  */
final class RandomSampling(
    val windowSize: Long,
    val period: Long,
    val phis: Array[Double],
    val epsilon: Double,
    val delta: Double = 1e-8,
    seed: Long = 42L,
) extends SlidingQuantilePolicy {
  require(windowSize % period == 0, "window must be a multiple of period")

  private val nSub = (windowSize / period).toInt
  private val totalBudget = math.ceil(math.log(1.0 / delta) / (epsilon * epsilon)).toLong
  private val perSub = math.min(period, math.max(1L, totalBudget / nSub)).toInt
  private val rng = new java.util.Random(seed)

  /** Each sealed sample's values stand for sub-window size / sample size values. */
  private val weight = period.toDouble / perSub

  private val sealed_ = new ArrayDeque[Array[Double]](nSub + 1) // sorted samples, oldest first
  private var reservoir = new Array[Double](perSub)
  private var seenInSub = 0L

  override def name: String = "Random"

  override def insert(v: Double): Unit = {
    if (seenInSub < perSub) reservoir(seenInSub.toInt) = v
    else {
      val j = (rng.nextDouble() * (seenInSub + 1)).toLong
      if (j < perSub) reservoir(j.toInt) = v
    }
    seenInSub += 1
    if (seenInSub == period) {
      java.util.Arrays.sort(reservoir)
      sealed_.append(reservoir)
      if (sealed_.length > nSub) sealed_.removeHead()
      reservoir = new Array[Double](perSub)
      seenInSub = 0
    }
  }

  override def evaluate(): Array[Double] = {
    require(sealed_.length == nSub, s"window not full: ${sealed_.length}/$nSub samples")
    // per φ, the first value of the samples' stable merge at which the
    // cumulative weight reaches ⌈φN⌉, else the largest
    val vals = sealed_.reduceLeft(merge)
    phis.map { phi =>
      val target = Stat.rankOf(phi, windowSize).toDouble
      var cum = weight
      var i = 0
      while (cum < target && i < vals.length - 1) { cum += weight; i += 1 }
      vals(i)
    }
  }

  /** Stable merge of two arrays sorted under `java.lang.Double.compare`, the
    * order `Arrays.sort` leaves: equal values come from `a`, the older, first.
    */
  private def merge(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length + b.length)
    var i = 0
    var j = 0
    while (i + j < out.length)
      if (j == b.length || (i < a.length && java.lang.Double.compare(a(i), b(j)) <= 0)) { out(i + j) = a(i); i += 1 }
      else { out(i + j) = b(j); j += 1 }
    out
  }

  override def observedSpace: Long =
    sealed_.iterator.map(_.length.toLong).sum + math.min(seenInSub, perSub.toLong)

  override def analyticalSpace: Long = totalBudget
}
