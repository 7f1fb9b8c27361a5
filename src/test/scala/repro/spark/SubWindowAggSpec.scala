package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{FewKConfig, FreqSketch}

class SubWindowAggSpec extends SparkSpec {
  private val phis = Array(0.5, 0.9, 0.99)

  private def events(n: Long, seed: Long = 7) = SynthData.netmonEvents(spark, n, seed)

  test("UDAF sub-window quantiles match DuckDB quantile_disc (Oracle)") {
    val ev = events(4000)
    // quantizeDigits = 0 so both engines see raw values
    val agg = udaf(new SubWindowAgg(FewKConfig.disabled(phis), 0))
    val got = ev
      .select((col("seq") / 1000).cast("long").as("sub"), col("value"))
      .groupBy("sub")
      .agg(agg(col("value")).as("s"))
      .select(col("sub"),
        col("s.quantiles")(0).as("q50"),
        col("s.quantiles")(1).as("q90"),
        col("s.quantiles")(2).as("q99"))
    Oracle.assertEquivalent(got,
      """SELECT CAST(seq AS BIGINT) // 1000 AS sub,
        |       quantile_disc(CAST(value AS DOUBLE), 0.5) AS q50,
        |       quantile_disc(CAST(value AS DOUBLE), 0.9) AS q90,
        |       quantile_disc(CAST(value AS DOUBLE), 0.99) AS q99
        |FROM events GROUP BY 1""".stripMargin,
      "events" -> ev)
  }

  test("UDAF counts match DuckDB group counts (Oracle)") {
    val ev = events(3500)
    val agg = udaf(new SubWindowAgg(FewKConfig.disabled(phis), 0))
    val got = ev
      .select((col("seq") / 500).cast("long").as("sub"), col("value"))
      .groupBy("sub")
      .agg(agg(col("value")).as("s"))
      .select(col("sub"), col("s.count").as("cnt"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(seq AS BIGINT) // 500 AS sub, COUNT(*) AS cnt FROM events GROUP BY 1",
      "events" -> ev)
  }

  test("UDAF equals driver FreqSketch on the same partition of data") {
    val n = 6000L
    val p = 1500
    val ev = events(n)
    val agg = udaf(new SubWindowAgg(FewKConfig.disabled(phis), 3))
    val rows = ev
      .select((col("seq") / p).cast("long").as("sub"), col("value"))
      .groupBy("sub").agg(agg(col("value")).as("s"))
      .select(col("sub"), col("s.quantiles").as("qs"))
      .collect()
      .map(r => r.getLong(0) -> r.getSeq[Double](1))
      .toMap
    val values = ev.orderBy("seq").collect().map(_.getDouble(1))
    values.grouped(p).zipWithIndex.foreach { case (chunk, sub) =>
      val sk = new FreqSketch
      chunk.foreach(v => sk.accumulate(repro.core.Quantizer.quantize(v)))
      assert(rows(sub.toLong) == sk.computeResult(phis).toSeq, s"sub $sub")
    }
  }

  test("UDAF pools carry the descending largest values per phi") {
    val ev = events(2000)
    val cfg = FewKConfig.sampleOnly(2000, phis, 0.5, minPhi = 0.0) // a pool for every phi
    val agg = udaf(new SubWindowAgg(cfg, 0))
    val pools = ev
      .select(lit(0L).as("sub"), col("value"))
      .groupBy("sub").agg(agg(col("value")).as("s"))
      .select(col("s.pools")).head()
      .getSeq[scala.collection.Seq[Double]](0)
      .map(_.toVector)
    val values = ev.collect().map(_.getDouble(1)).sorted(Ordering[Double].reverse)
    phis.indices.foreach { i =>
      val want = values.take(cfg.poolSize(i)).toVector
      assert(pools(i) == want, s"pool for phi=${phis(i)}")
    }
  }

  test("UDAF is merge-safe across partitions (repartition invariance)") {
    val ev = events(8000)
    val cfg = FewKConfig(phis, Array(5, 5, 5), Array(5, 5, 5), Array(0, 0, 0))
    val agg = udaf(new SubWindowAgg(cfg, 3))
    def run(parts: Int) = ev.repartition(parts)
      .select((col("seq") / 2000).cast("long").as("sub"), col("value"))
      .groupBy("sub").agg(agg(col("value")).as("s"))
      .select(col("sub"), col("s.quantiles").as("q"), col("s.pools").as("p"))
      .collect().map(r => (r.getLong(0), r.getSeq[Double](1), r.getSeq[Seq[Double]](2)))
      .sortBy(_._1).toSeq
    assert(run(1) == run(13))
  }

  test("UDAF registered in the session function registry is SQL-callable") {
    val ev = events(1000)
    spark.udf.register("qlove_subwindow",
      udaf(new SubWindowAgg(FewKConfig.disabled(Array(0.5)), 0)))
    ev.createOrReplaceTempView("ev_sql")
    val out = spark.sql(
      "SELECT qlove_subwindow(value).quantiles[0] AS med FROM ev_sql").head().getDouble(0)
    val want = repro.core.Stat.exactQuantile(ev.collect().map(_.getDouble(1)), 0.5)
    assert(out == want)
  }

  test("quantization inside the UDAF compresses the frequency buffer") {
    val ev = events(5000)
    val agg = udaf(new SubWindowAgg(FewKConfig.disabled(Array(0.5)), 3))
    val q = ev.select(lit(0L).as("sub"), col("value"))
      .groupBy("sub").agg(agg(col("value")).as("s"))
      .select(col("s.quantiles")(0)).head().getDouble(0)
    // quantized median within 0.5% of the raw median
    val raw = repro.core.Stat.exactQuantile(ev.collect().map(_.getDouble(1)), 0.5)
    assert(math.abs(q - raw) / raw <= 0.005)
  }
}
