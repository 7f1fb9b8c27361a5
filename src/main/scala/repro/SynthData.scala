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

  /** NetMon-like datacenter RTT stream (integer microseconds, heavy tail). */
  def netmonEvents(spark: SparkSession, rows: Long, seed: Long = 7): DataFrame = {
    import spark.implicits._
    val gen = udf((i: Long) => repro.data.Telemetry.netmonAt(seed, i))
    spark.range(rows).select($"id" as "seq", gen($"id") as "value")
  }
}
