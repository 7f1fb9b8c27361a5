package repro.core

/** One-sided Mann–Whitney U test (paper §4.3, citing Mann & Whitney 1947).
  *
  * QLOVE detects bursty traffic by testing whether the sampled largest values
  * of the *current* sub-window are stochastically larger than those of the
  * adjacent former sub-window. We use the normal approximation with midranks
  * for ties and a tie-corrected variance (standard for n ≥ ~8; few-k sample
  * sizes are in the tens to hundreds).
  */
object MannWhitney {

  /** p-value of the one-sided alternative "x is stochastically larger than y".
    * Returns 1.0 when either sample is too small to test (< 3 points). The
    * samples may come in any order; sorted primitive copies are ranked in
    * one linear pass.
    */
  def pValueGreater(x: Array[Double], y: Array[Double]): Double = {
    val nx = x.length.toLong
    val ny = y.length.toLong
    if (nx < 3 || ny < 3) return 1.0
    val xs = x.clone()
    val ys = y.clone()
    java.util.Arrays.sort(xs)
    java.util.Arrays.sort(ys)
    // midranks + tie counts in one pass over both sorted samples, in the order
    // of a stable sort of x ++ y: a tie group is the next value (x first on a
    // tie) and every following value `==` to it
    var rankSumX = 0.0
    var tieCorrection = 0.0
    var i = 0
    var j = 0
    while (i < xs.length || j < ys.length) {
      val k = i + j
      var cx = 0
      val v =
        if (j == ys.length || (i < xs.length && java.lang.Double.compare(xs(i), ys(j)) <= 0)) {
          cx = 1; i += 1; xs(i - 1)
        } else { j += 1; ys(j - 1) }
      while (i < xs.length && xs(i) == v) { cx += 1; i += 1 }
      while (j < ys.length && ys(j) == v) j += 1
      val e = i + j - 1
      val t = (e - k + 1).toDouble
      val midrank = (k + 1 + e + 1) / 2.0
      var m = 0
      while (m < cx) { rankSumX += midrank; m += 1 }
      tieCorrection += t * t * t - t
    }
    val u = rankSumX - nx * (nx + 1) / 2.0
    val n = (nx + ny).toDouble
    val meanU = nx * ny / 2.0
    val varU = nx * ny / 12.0 * ((n + 1) - tieCorrection / (n * (n - 1)))
    if (varU <= 0) return 1.0 // all values identical
    val z = (u - meanU - 0.5) / math.sqrt(varU) // continuity correction
    1.0 - Stat.normalCdf(z)
  }

  /** Convenience: burst decision at significance level `alpha`. */
  def isStochasticallyLarger(x: Array[Double], y: Array[Double], alpha: Double = 0.05): Boolean =
    pValueGreater(x, y) < alpha
}
