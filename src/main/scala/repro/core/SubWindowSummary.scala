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

  /** The one seal: build a sub-window's summary from its `count`, its exact
    * per-φ `quantiles` and its [[pools]]. The top-k cache is the pool's
    * prefix, the samples are its interval sample, and the burst flag tests
    * the pool against the predecessor's `prevPools(i)` (empty for the first
    * sub-window). [[Level2.add]], which the driver, the streaming operator
    * and the Spark batch pipeline all slide, seals through here.
    */
  def seal(count: Long, quantiles: Array[Double], pools: Array[Array[Double]],
           prevPools: Array[Array[Double]], cfg: FewKConfig): SubWindowSummary = {
    val l = cfg.phis.length
    val topK = new Array[Array[Double]](l)
    val samples = new Array[Array[Double]](l)
    val bursty = new Array[Boolean](l)
    var i = 0
    while (i < l) {
      val pool = pools(i)
      topK(i) =
        if (cfg.topEnabled(i)) pool.take(math.min(cfg.topK(i), pool.length))
        else Array.emptyDoubleArray
      samples(i) =
        if (cfg.sampleEnabled(i)) FewK.intervalSample(pool, cfg.sampleStep(i))
        else Array.emptyDoubleArray
      bursty(i) = cfg.sampleEnabled(i) && prevPools(i).nonEmpty &&
        MannWhitney.isStochasticallyLarger(pool, prevPools(i), cfg.burstAlpha)
      i += 1
    }
    SubWindowSummary(count, quantiles, topK, samples, bursty)
  }

  /** [[seal]] of a sealed Level-1 state; `prevPools` is the predecessor's
    * [[pools]] (empty arrays for the first sub-window). The program seals
    * through [[Level2.add]]; this one-sketch form is the entry point of the
    * specs and of the benchmark's seal replay (`perfbench` `LayerReplay`).
    */
  def fromSketch(sketch: FreqSketch, cfg: FewKConfig,
                 prevPools: Array[Array[Double]]): SubWindowSummary =
    seal(sketch.count, sketch.computeResult(cfg.phis), pools(sketch, cfg), prevPools, cfg)

  /** The per-φ tail pools of a sealed sketch: its `poolSize(i)` largest
    * values, descending, for every φ with top-k or sample-k on (empty
    * otherwise). They feed this sub-window's caches and the next one's
    * burst test.
    */
  def pools(sketch: FreqSketch, cfg: FewKConfig): Array[Array[Double]] =
    Array.tabulate(cfg.phis.length) { i =>
      if (cfg.topEnabled(i) || cfg.sampleEnabled(i)) sketch.topValues(cfg.poolSize(i))
      else Array.emptyDoubleArray
    }
}
