package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic telemetry event streams as Spark DataFrames.
  *
  * Events are (seq, value); `seq` is the arrival order the windowing model
  * keys on. Values are generated by the deterministic index-addressable
  * inverse-CDF generators in repro.data.Telemetry, so driver-side streams
  * and these DataFrames contain bit-identical data for the same (n, seed).
  */
object SynthData {

  private def telemetryDf(spark: SparkSession, rows: Long,
                          at: Long => Double): DataFrame = {
    import spark.implicits._
    val gen = udf(at)
    spark.range(rows).select($"id" as "seq", gen($"id") as "value")
  }

  /** NetMon-like datacenter RTT stream (integer microseconds, heavy tail). */
  def netmonEvents(spark: SparkSession, rows: Long, seed: Long = 7): DataFrame =
    telemetryDf(spark, rows, repro.data.Telemetry.netmonAt(seed, _))

  /** Search-like ISN latency stream (lognormal capped at a 200 ms SLA). */
  def searchEvents(spark: SparkSession, rows: Long, seed: Long = 8): DataFrame =
    telemetryDf(spark, rows, repro.data.Telemetry.searchAt(seed, _))

  /** Pareto(x_m=10, α=1) integer stream (§5.4 skewness study). */
  def paretoEvents(spark: SparkSession, rows: Long, seed: Long = 9): DataFrame =
    telemetryDf(spark, rows, repro.data.Telemetry.paretoAt(seed, _))

  /** Normal(1e6, 5e4) stream (§5.2 scalability / §5.4 marginal). */
  def normalEvents(spark: SparkSession, rows: Long, seed: Long = 10): DataFrame =
    telemetryDf(spark, rows, repro.data.Telemetry.normalAt(seed, _))
}
