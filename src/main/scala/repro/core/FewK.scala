package repro.core

/** Per-quantile few-k configuration (paper §4.2).
  *
  * For window size `N`, period `P` and quantile φ, the per-sub-window space
  * that *guarantees* the exact answer is the pool `poolSize = ⌈N(1-φ)⌉`
  * (the sub-window's largest values that could matter window-wide). A space
  * budget is expressed as a *fraction* of that pool, split into
  *
  *   - `topK(φ)`      — the k_t largest values cached for top-k merging
  *                       (statistical inefficiency), and
  *   - `sampleStep(φ)`— the interval i of sample-k merging over the pool
  *                       (bursty traffic); step 0 disables sampling.
  */
final case class FewKConfig(
    phis: Array[Double],
    poolSize: Array[Int],
    topK: Array[Int],
    sampleStep: Array[Int],
    burstAlpha: Double = 0.05,
) {
  require(phis.length == poolSize.length && phis.length == topK.length &&
    phis.length == sampleStep.length, "per-φ arrays must align")

  def topEnabled(i: Int): Boolean = topK(i) > 0
  def sampleEnabled(i: Int): Boolean = sampleStep(i) > 0
}

object FewKConfig {

  /** All few-k machinery off — the plain §3 algorithm (Tables 1, 2, 5). */
  def disabled(phis: Array[Double]): FewKConfig =
    FewKConfig(phis, phis.map(_ => 0), phis.map(_ => 0), phis.map(_ => 0))

  /** Exact-guarantee per-sub-window pool: the window's φ-quantile is its
    * `t = N - ⌈φN⌉ + 1`-th largest element, so caching the t largest values
    * of every sub-window guarantees the exact answer even if all t sit in one
    * sub-window (N = 131072, φ = 0.999 → the paper's "132 largest entries").
    */
  private def pool(n: Long, phi: Double): Int =
    math.max(1, FewK.depthFromTop(n, phi).toInt)

  /** Top-k merging only, with per-sub-window cache `fraction × poolSize`
    * (Table 3). Applied to every φ with `P(1-φ) < ts` (the statistical-
    * inefficiency trigger); other φ keep the Level-2 estimate.
    */
  def topOnly(nWindow: Long, pPeriod: Long, phis: Array[Double],
              fraction: Double, ts: Double = 10.0): FewKConfig = {
    val pools = phis.map(pool(nWindow, _))
    val tops = phis.indices.map { i =>
      if (pPeriod * (1.0 - phis(i)) < ts)
        math.max(1, math.ceil(fraction * pools(i)).toInt)
      else 0
    }.toArray
    FewKConfig(phis, pools, tops, phis.map(_ => 0))
  }

  /** Sample-k merging only, with per-sub-window sample budget
    * `fraction × poolSize` (Table 4). `fraction <= 0` disables sampling.
    * Sampling is applied only to high quantiles (φ ≥ `minPhi`) — few-k
    * merging targets the tail; for non-high quantiles the exact-guarantee
    * pool would be a large fraction of the window.
    */
  def sampleOnly(nWindow: Long, phis: Array[Double], fraction: Double,
                 minPhi: Double = 0.99): FewKConfig = {
    val pools = phis.map(pool(nWindow, _))
    val steps = phis.indices.map { i =>
      if (fraction <= 0.0 || phis(i) < minPhi) 0
      else {
        val ks = math.max(1, math.ceil(fraction * pools(i)).toInt)
        math.max(1, math.round(pools(i).toDouble / ks).toInt)
      }
    }.toArray
    FewKConfig(phis, pools, phis.map(_ => 0), steps)
  }
}

/** Merging of per-sub-window few-k caches into a window-level answer. */
object FewK {

  /** 1-based depth from the top for the φ-quantile of an N-element window:
    * the ⌈φN⌉-th smallest is the `N - ⌈φN⌉ + 1`-th largest.
    */
  def depthFromTop(nWindow: Long, phi: Double): Long =
    nWindow - Stat.rankOf(phi, nWindow) + 1

  /** Top-k merging (§4.2): read the t-th largest value of the union of every
    * sub-window's k_t largest values. If fewer than t values were cached
    * (fraction too small / bursty sub-window), answer the smallest cached
    * value — this is exactly where accuracy degrades in Table 3.
    *
    * Each cache must be non-increasing under `java.lang.Double.compare` (as
    * [[SubWindowSummary]] enforces), so the union is read by k-way selection
    * over the caches, stopping at depth t: O(t log n) for n caches.
    */
  def mergeTopK(caches: Iterable[Array[Double]], t: Long): Double = {
    require(t >= 1, s"depth must be >= 1, got $t")
    val merge = new DescendingMerge(caches.toArray)
    require(merge.hasNext, "top-k merge with no cached values")
    var depth = 0L
    while (depth < t && merge.hasNext) { merge.next(); depth += 1 }
    merge.value
  }

  /** Sample-k merging (§4.2): each sub-window contributes interval samples of
    * its pool, each standing for `weight = poolSize / sampleCount` ranked
    * values (the exact inverse of the paper's sampling fraction α — an
    * integer step would under-cover the pool and drop its deepest values).
    * The answer walks the merged samples in descending order accumulating
    * weight until the target depth t is covered (the paper's "refer to the
    * αN(1-φ)-th largest value to factor in data reduction by sampling"); if
    * the samples run out first, it answers the smallest one.
    *
    * Each sample array must be non-increasing under `java.lang.Double.compare`.
    * Equal values are walked in sub-window order, so the weights are summed
    * in the order of a stable descending sort of all samples, and the walk
    * stops at cumulative weight t: O(t/w log n) rather than a sort of them all.
    * A NaN is greater than every number under that order, so it is walked first.
    */
  def mergeSampleK(samples: Iterable[(Array[Double], Double)], t: Long): Double = {
    val weights = samples.iterator.map(_._2).toArray
    val merge = new DescendingMerge(samples.iterator.map(_._1).toArray)
    require(merge.hasNext, "sample-k merge with no samples")
    var cum = 0.0
    while (merge.hasNext) {
      merge.next()
      cum += weights(merge.from)
      if (cum >= t - 1e-9) return merge.value
    }
    merge.value
  }

  /** True when `a` is non-increasing under `java.lang.Double.compare` — the
    * order every few-k cache must have.
    */
  def isDescending(a: Array[Double]): Boolean = {
    var i = 1
    while (i < a.length && java.lang.Double.compare(a(i - 1), a(i)) >= 0) i += 1
    i >= a.length
  }

  /** The rank weight each of a sub-window's samples stands for. */
  def sampleWeight(poolLen: Int, sampleCount: Int): Double =
    if (sampleCount == 0) 0.0 else poolLen.toDouble / sampleCount

  /** Interval sampling of a descending pool: every `step`-th ranked value
    * (ranks step, 2·step, … — for i=2 "all even ranked values", §4.2).
    */
  def intervalSample(poolDescending: Array[Double], step: Int): Array[Double] = {
    require(step >= 1, s"step must be >= 1, got $step")
    val out = new Array[Double](poolDescending.length / step)
    var k = 0
    while (k < out.length) { out(k) = poolDescending((k + 1) * step - 1); k += 1 }
    out
  }
}

/** k-way selection over arrays that are each non-increasing under
  * `java.lang.Double.compare`: `next()` yields their values in the order of a
  * stable descending sort of the arrays' concatenation (larger value first,
  * equal values by array index, then by position). A binary heap of array
  * indices keyed by each array's current head makes each step O(log n).
  */
private[core] final class DescendingMerge(arrays: Array[Array[Double]]) {
  private val pos = new Array[Int](arrays.length)
  private val heap = arrays.indices.filter(arrays(_).nonEmpty).toArray
  private var size = heap.length

  /** The value of the last `next()`, and the index of the array it came from. */
  var value: Double = Double.NaN
  var from: Int = -1

  { var k = size / 2 - 1; while (k >= 0) { siftDown(k); k -= 1 } }

  def hasNext: Boolean = size > 0

  def next(): Unit = {
    val j = heap(0)
    value = arrays(j)(pos(j))
    from = j
    pos(j) += 1
    if (pos(j) == arrays(j).length) { size -= 1; heap(0) = heap(size) }
    siftDown(0)
  }

  // Does the head of array a come before the head of array b?
  private def before(a: Int, b: Int): Boolean = {
    val c = java.lang.Double.compare(arrays(a)(pos(a)), arrays(b)(pos(b)))
    c > 0 || (c == 0 && a < b)
  }

  private def siftDown(start: Int): Unit = {
    var k = start
    var done = false
    while (!done) {
      val l = 2 * k + 1
      if (l >= size) done = true
      else {
        val c = if (l + 1 < size && before(heap(l + 1), heap(l))) l + 1 else l
        if (before(heap(c), heap(k))) {
          val tmp = heap(k); heap(k) = heap(c); heap(c) = tmp
          k = c
        } else done = true
      }
    }
  }
}
