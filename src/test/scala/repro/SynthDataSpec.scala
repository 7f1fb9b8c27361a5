package repro

import repro.data.Telemetry

class SynthDataSpec extends SparkSpec {

  test("netmonEvents equals the driver-side generator bit-for-bit") {
    val df = SynthData.netmonEvents(spark, 2000, seed = 7).orderBy("seq").collect()
    val driver = Telemetry.netmon(2000, 7).toArray
    df.foreach(r => assert(r.getDouble(1) == driver(r.getLong(0).toInt)))
  }
}
