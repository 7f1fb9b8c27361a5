package repro.core

/** Window-level estimate selection shared by the driver operator
  * ([[Qlove]]), the Spark batch pipeline and the Structured Streaming
  * operator, so all three paths answer identically (§4.3 "Selecting
  * outcomes").
  */
object QloveEstimator {

  /** Per-φ estimate for a full window of `summaries` (oldest first):
    * sample-k when the window holds a bursty sub-window, top-k for
    * statistically inefficient quantiles, Level-2 mean otherwise.
    */
  def estimate(summaries: scala.collection.IndexedSeq[SubWindowSummary], cfg: FewKConfig,
               windowSize: Long): Array[Double] = {
    val n = summaries.length
    require(n > 0, "estimate over no summaries")
    Array.tabulate(cfg.phis.length) { i =>
      estimateAt(summaries, cfg, windowSize, i, {
        var s = 0.0
        var j = 0
        while (j < n) { s += summaries(j).quantiles(i); j += 1 }
        s / n
      })
    }
  }

  /** The §4.3 selection for quantile index `i`; `level2Mean` is evaluated
    * only when neither few-k branch applies, so the driver can pass its
    * running-sum mean.
    */
  def estimateAt(summaries: scala.collection.IndexedSeq[SubWindowSummary], cfg: FewKConfig,
                 windowSize: Long, i: Int, level2Mean: => Double): Double = {
    val t = FewK.depthFromTop(windowSize, cfg.phis(i))
    if (cfg.sampleEnabled(i) && summaries.exists(_.bursty(i)))
      FewK.mergeSampleK(summaries.map(s => (s.samples(i),
        FewK.sampleWeight(math.min(cfg.poolSize(i).toLong, s.count).toInt,
          s.samples(i).length))), t)
    else if (cfg.topEnabled(i)) FewK.mergeTopK(summaries.map(_.topK(i)), t)
    else level2Mean
  }
}
