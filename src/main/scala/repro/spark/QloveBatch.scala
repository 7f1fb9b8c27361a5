package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{FewKConfig, QloveEstimator, SubWindowSummary}

/** One window evaluation: `eval` is the absolute index of the window's most
  * recent sub-window (the harness's k-th evaluation is `eval = n - 1 + k`).
  */
final case class EvalEstimate(eval: Long, estimates: Seq[Double])

/** QLOVE's hierarchical windowing as a two-stage distributed dataflow:
  *
  *   Stage 1 (Level 1) — `groupBy(seq div P)` + the [[SubWindowAgg]] custom
  *   aggregate produces each sub-window's count, exact quantiles and few-k
  *   pools with partial aggregation across partitions.
  *
  *   Stage 2 (Level 2) — a lag window over sub-window order pairs each
  *   sub-window's pools with its predecessor's, and [[SubWindowSummary.seal]]
  *   builds its summary once, exactly as the driver does. Each summary is
  *   fanned out to the n window evaluations it participates in, and a
  *   per-evaluation group merge applies the shared [[QloveEstimator]] —
  *   Level-2 mean / top-k / sample-k selection identical to the driver
  *   operator.
  */
object QloveBatch {

  /** Stage 1: per-sub-window summaries of an event frame with columns
    * (`seq`, `value`). Only complete sub-windows (count == period) survive.
    */
  def subWindowSummaries(events: DataFrame, period: Long, cfg: FewKConfig,
                         quantizeDigits: Int = 3): DataFrame = {
    val agg = udaf(new SubWindowAgg(cfg, quantizeDigits))
    events
      .select(floor(col("seq") / period.toDouble).cast("long").as("sub"), col("value"))
      .groupBy("sub")
      .agg(agg(col("value")).as("summary"))
      .where(col("summary.count") === period)
  }

  /** Stage 2: seal, fan out to evaluations, group merge. Returns one row per
    * complete window evaluation, ordered by `eval`.
    */
  def estimates(spark: SparkSession, events: DataFrame, windowSize: Long,
                period: Long, cfg: FewKConfig, quantizeDigits: Int = 3): Dataset[EvalEstimate] = {
    import spark.implicits._
    require(windowSize % period == 0, "window must be a multiple of period")
    val nSub = (windowSize / period).toInt
    val noPools = cfg.phis.map(_ => Array.emptyDoubleArray)
    subWindowSummaries(events, period, cfg, quantizeDigits)
      .withColumn("prevPools",
        lag(col("summary.pools"), 1).over(Window.orderBy(col("sub"))))
      .select(col("sub"), col("summary.count"), col("summary.quantiles"),
        col("summary.pools"), col("prevPools"))
      .as[(Long, Long, Array[Double], Array[Array[Double]], Option[Array[Array[Double]]])]
      .flatMap { case (sub, count, qs, pools, prev) =>
        val s = SubWindowSummary.seal(count, qs, pools, prev.getOrElse(noPools), cfg)
        (sub until sub + nSub).map(e => (e, sub, s))
      }
      .groupByKey(_._1)
      .flatMapGroups { (eval, it) =>
        // an evaluation past the last sub-window has fewer than n summaries
        val subs = it.toArray.sortBy(_._2)
        if (subs.length < nSub) Iterator.empty
        else Iterator.single(EvalEstimate(eval,
          QloveEstimator.estimate(subs.map(_._3).toIndexedSeq, cfg, windowSize).toSeq))
      }
      .orderBy("eval")
  }
}
