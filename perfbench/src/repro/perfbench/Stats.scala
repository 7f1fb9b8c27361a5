package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Order statistics for timing samples.
  *
  * A percentile is only reported when at least [[Stats.MinBeyond]] samples
  * lie beyond it; a tail taken over fewer samples moves from process to
  * process by more than any bound worth setting, so it is refused instead.
  */
object Stats {
  val MinBeyond = 10

  def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.toArray.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2.0
  }

  /** Nearest-rank `q`-quantile, or None when fewer than [[MinBeyond]]
    * samples lie strictly beyond it.
    */
  def percentile(xs: collection.Seq[Double], q: Double): Option[Double] = {
    require(q > 0.0 && q < 1.0, s"percentile must be in (0,1), got $q")
    val n = xs.length
    val rank = math.ceil(q * n - 1e-9).toInt // 1-based
    if (n == 0 || n - rank < MinBeyond) None
    else Some(xs.toArray.sorted.apply(rank - 1))
  }

  /** Smallest sample count for which `percentile(_, q)` answers. */
  def minSamples(q: Double): Int =
    Iterator.from(1).find(n => n - math.ceil(q * n - 1e-9).toInt >= MinBeyond).get
}

/** A growable set of samples of one quantity. */
final class Samples {
  private val xs = new ArrayBuffer[Double]()
  def add(x: Double): Unit = xs += x
  def count: Int = xs.length
  def median: Double = Stats.median(xs)
  def min: Double = xs.min
  def max: Double = xs.max
  /** The highest of p99 and p90 the samples support, as (q, value). */
  def tail: Option[(Double, Double)] =
    Seq(0.99, 0.9).iterator.flatMap(q => Stats.percentile(xs, q).map(q -> _)).nextOption()
  /** The `q`-quantile; fails when the samples cannot support it. */
  def percentile(q: Double, what: String): Double =
    Stats.percentile(xs, q).getOrElse(throw new IllegalStateException(
      s"$what: $count samples cannot support a p${(q * 100).round} " +
        s"(needs ${Stats.minSamples(q)})"))
}
