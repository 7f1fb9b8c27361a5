package repro.core

/** Immutable summary of one completed sub-window (paper Fig. 2, `s_i`).
  *
  * Per requested quantile φ_i it carries the sub-window's exact φ_i-quantile
  * (Level-1 output), plus the few-k caches when enabled: the k_t largest
  * values (descending) and the interval samples of the exact-guarantee pool
  * (descending, each standing for `sampleStep` ranked values). `bursty(i)` is
  * the Mann–Whitney verdict of this sub-window's tail against its predecessor.
  *
  * Every cache must be non-increasing under `java.lang.Double.compare`, the
  * order the few-k merges rely on; it is checked here, once per seal.
  */
final case class SubWindowSummary(
    count: Long,
    quantiles: Array[Double],
    topK: Array[Array[Double]],
    samples: Array[Array[Double]],
    bursty: Array[Boolean],
) {
  require(topK.forall(FewK.isDescending) && samples.forall(FewK.isDescending),
    "few-k caches must be non-increasing under java.lang.Double.compare")

  /** Stored scalars ("number of variables") attributable to this summary. */
  def observedSpace: Long =
    quantiles.length.toLong +
      topK.iterator.map(_.length.toLong).sum +
      samples.iterator.map(_.length.toLong).sum
}

object SubWindowSummary {

  /** Build the summary of a sealed Level-1 state. `prevPools(i)` is the
    * predecessor sub-window's tail pool per φ (for burst detection); pass
    * empty arrays for the first sub-window.
    */
  def fromSketch(sketch: FreqSketch, cfg: FewKConfig,
                 prevPools: Array[Array[Double]]): SubWindowSummary =
    seal(sketch, cfg, prevPools)._1

  /** [[fromSketch]] plus this sub-window's [[pools]] for the next seal's burst
    * test, read from the pools the summary was built from.
    */
  def seal(sketch: FreqSketch, cfg: FewKConfig,
           prevPools: Array[Array[Double]]): (SubWindowSummary, Array[Array[Double]]) = {
    val phis = cfg.phis
    val qs = sketch.computeResult(phis)
    val topK = new Array[Array[Double]](phis.length)
    val samples = new Array[Array[Double]](phis.length)
    val bursty = new Array[Boolean](phis.length)
    val nextPools = new Array[Array[Double]](phis.length)
    var i = 0
    while (i < phis.length) {
      val needPool = cfg.topEnabled(i) || cfg.sampleEnabled(i)
      val pool: Array[Double] =
        if (needPool) sketch.topValues(cfg.poolSize(i)) else Array.emptyDoubleArray
      topK(i) =
        if (cfg.topEnabled(i)) pool.take(math.min(cfg.topK(i), pool.length))
        else Array.emptyDoubleArray
      samples(i) =
        if (cfg.sampleEnabled(i)) FewK.intervalSample(pool, cfg.sampleStep(i))
        else Array.emptyDoubleArray
      bursty(i) = cfg.sampleEnabled(i) && prevPools(i).nonEmpty &&
        MannWhitney.isStochasticallyLarger(pool, prevPools(i), cfg.burstAlpha)
      nextPools(i) = if (cfg.sampleEnabled(i)) pool else Array.emptyDoubleArray
      i += 1
    }
    (SubWindowSummary(sketch.count, qs, topK, samples, bursty), nextPools)
  }

  /** The per-φ tail pools of a sealed sketch (predecessor side of the next
    * sub-window's burst test).
    */
  def pools(sketch: FreqSketch, cfg: FewKConfig): Array[Array[Double]] =
    cfg.phis.indices.map { i =>
      if (cfg.sampleEnabled(i)) sketch.topValues(cfg.poolSize(i))
      else Array.emptyDoubleArray
    }.toArray
}
