package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{FewKConfig, Level2}

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
  *   Stage 2 (Level 2) — the N/P-times smaller stage-1 rows go to one
  *   partition, sorted by sub-window, and one ordered pass slides the
  *   driver's [[Level2]] over them: each row is sealed against its
  *   predecessor's pools, slid in, and the window evaluated once full —
  *   the same running-sum arithmetic and selection as the driver operator.
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

  /** Stage 2: one [[Level2]] slid over the stage-1 rows in sub-window order.
    * Returns one row per complete window evaluation, ordered by `eval`
    * because it is one sorted partition. A sub-window missing from stage 1
    * (a partial one) restarts the window, so no evaluation spans it; the
    * next burst test compares with the last sub-window kept.
    */
  def estimates(spark: SparkSession, events: DataFrame, windowSize: Long,
                period: Long, cfg: FewKConfig, quantizeDigits: Int = 3): Dataset[EvalEstimate] = {
    import spark.implicits._
    require(windowSize % period == 0, "window must be a multiple of period")
    subWindowSummaries(events, period, cfg, quantizeDigits)
      .select(col("sub"), col("summary.count"), col("summary.quantiles"), col("summary.pools"))
      .repartition(1)
      .sortWithinPartitions("sub")
      .as[(Long, Long, Array[Double], Array[Array[Double]])]
      .mapPartitions { rows =>
        val level2 = new Level2(windowSize, period, cfg)
        var last = Long.MinValue
        rows.flatMap { case (sub, count, qs, pools) =>
          if (sub != last + 1) level2.restart()
          last = sub
          level2.add(count, qs, pools)
          if (level2.full) Iterator.single(EvalEstimate(sub, level2.evaluate().toSeq))
          else Iterator.empty
        }
      }
  }
}
