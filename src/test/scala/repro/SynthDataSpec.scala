package repro

import org.apache.spark.sql.functions._
import repro.data.Telemetry

class SynthDataSpec extends SparkSpec {

  test("netmonEvents equals the driver-side generator bit-for-bit") {
    val df = SynthData.netmonEvents(spark, 2000, seed = 7).orderBy("seq").collect()
    val driver = Telemetry.netmon(2000, 7).toArray
    df.foreach(r => assert(r.getDouble(1) == driver(r.getLong(0).toInt)))
  }

  test("paretoEvents and searchEvents are deterministic and in-range") {
    val p = SynthData.paretoEvents(spark, 1000).agg(min("value"), max("value")).head()
    assert(p.getDouble(0) >= 10.0 && p.getDouble(1) <= 1.1e9)
    val s1 = SynthData.searchEvents(spark, 500).collect().map(_.getDouble(1)).toSeq
    val s2 = SynthData.searchEvents(spark, 500).collect().map(_.getDouble(1)).toSeq
    assert(s1 == s2)
    assert(s1.max <= 200000.0)
  }

  test("normalEvents matches the driver normal generator's moments") {
    val stats = SynthData.normalEvents(spark, 50000)
      .agg(avg("value").as("m"), stddev_pop("value").as("s")).head()
    assert(math.abs(stats.getDouble(0) - 1e6) < 2000)
    assert(math.abs(stats.getDouble(1) - 5e4) / 5e4 < 0.05)
  }
}
