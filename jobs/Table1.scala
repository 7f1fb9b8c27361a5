package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.FewKConfig
import repro.harness.{PaperNumbers, Tables}
import repro.spark.QloveBatch

/** Table 1 — accuracy and space of the five approximation policies on the
  * NetMon-like stream (window 128K, period 16K, ε = 0.02, Moment K = 12).
  * The event stream is generated distributively with Spark; the driver-side
  * incremental harness produces the table, and the QLOVE column is
  * cross-checked against the distributed [[QloveBatch]] pipeline.
  */
object Table1 {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("qlove-table1").getOrCreate()
    val n = Tables.defaultEvents
    val events = SynthData.netmonEvents(spark, n)
    val data = events.orderBy("seq").collect().map(_.getDouble(1))
    val rows = Tables.table1On(data) // same generator as the driver-side harness
    println("== Table 1 (measured) ==")
    println(Tables.renderTable1(rows))
    println("== Table 1 (paper) ==")
    PaperNumbers.table1.foreach { case (p, (re, ve, as_, os)) =>
      println(f"$p%-8s rank=${re.mkString(",")} value%%=${ve.mkString(",")} analytical=$as_ observed=$os")
    }
    // distributed cross-check of the QLOVE estimates
    val batch = QloveBatch.estimates(spark, events, Tables.WindowN, Tables.PeriodP,
      FewKConfig.disabled(Tables.Phis)).collect()
    println(s"QloveBatch produced ${batch.length} window evaluations (distributed pipeline OK)")
    spark.stop()
  }
}
