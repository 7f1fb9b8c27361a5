package repro.harness

import java.util.Arrays
import repro.core.Stat

/** Exact sliding-window ground truth over a stream known in advance: window
  * counts over the stream's distinct values in a Fenwick tree (Fenwick 1994),
  * so an insert or an expiry is one O(log U) update and a quantile one descent.
  * The values are sorted and deduplicated under `java.lang.Double.compare`,
  * the key order and equality of [[repro.baselines.ExactSliding]]'s tree
  * (−0.0 its own key below 0.0, all NaNs one key, the largest).
  */
final class WindowOracle(data: Array[Double]) {
  private val keys: Array[Double] = {
    val s = data.clone()
    Arrays.sort(s)
    var u = 0
    s.foreach(v => if (u == 0 || java.lang.Double.compare(v, s(u - 1)) != 0) { s(u) = v; u += 1 })
    Arrays.copyOf(s, u)
  }
  private val rank: Array[Int] = data.map(Arrays.binarySearch(keys, _)) // each event's value rank
  private val tree = new Array[Long](keys.length + 1)

  private def add(r: Int, d: Long): Unit = {
    var i = r + 1
    while (i < tree.length) { tree(i) += d; i += i & -i }
  }

  /** The count of window values at ranks below `r`. */
  private def below(r: Int): Long = {
    var s = 0L
    var i = r
    while (i > 0) { s += tree(i); i -= i & -i }
    s
  }

  /** Event `i` enters, or leaves, the window. */
  def insert(i: Int): Unit = add(rank(i), 1L)
  def expire(i: Int): Unit = add(rank(i), -1L)

  /** Per φ, the first value whose cumulative window count reaches ⌈φ·count⌉. */
  def quantiles(phis: Array[Double]): Array[Double] = phis.map { phi =>
    val total = below(keys.length)
    var rem = Stat.rankOf(phi, total)
    require(rem <= total, s"rank $rem beyond the window's $total values")
    var pos = 0
    var step = Integer.highestOneBit(keys.length)
    while (step > 0) {
      if (pos + step <= keys.length && tree(pos + step) < rem) { pos += step; rem -= tree(pos) }
      step >>= 1
    }
    keys(pos)
  }

  /** The tree's `rankInterval`: the 1-based inclusive ranks `v` occupies in
    * the window, or `(below, below + 1)` when the window holds no `v`.
    */
  def rankInterval(v: Double): (Long, Long) = {
    val at = Arrays.binarySearch(keys, v)
    val b = below(if (at < 0) -at - 1 else at)
    val atV = if (at < 0) 0L else below(at + 1) - b
    if (atV > 0) (b + 1, b + atV) else (b, b + 1)
  }
}
