package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Stat

class TelemetrySpec extends AnyFunSuite {
  private val N = 200000

  private lazy val netmon = Telemetry.netmon(N).toArray
  private lazy val search = Telemetry.search(N).toArray
  private lazy val pareto = Telemetry.pareto(N).toArray

  test("generators are deterministic in (n, seed)") {
    assert(Telemetry.netmon(100).toSeq == Telemetry.netmon(100).toSeq)
    assert(Telemetry.netmon(100, 1).toSeq != Telemetry.netmon(100, 2).toSeq)
    assert(Telemetry.ar1(100, 0.5).toSeq == Telemetry.ar1(100, 0.5).toSeq)
  }

  test("index-addressable generators agree with their iterators") {
    val it = Telemetry.netmon(50, 7).toArray
    (0 until 50).foreach(i => assert(it(i) == Telemetry.netmonAt(7, i)))
  }

  test("netmonArray equals the iterator's array bit for bit") {
    for (n <- Seq(0L, 1L, 7L, 2000003L); seed <- Seq(7L, 11L, 13L)) {
      val bits = Telemetry.netmonArray(n, seed).map(java.lang.Double.doubleToRawLongBits)
      assert(bits.sameElements(Telemetry.netmon(n, seed).map(java.lang.Double.doubleToRawLongBits)), (n, seed))
    }
  }

  test("netmon matches the paper's reported body quantiles") {
    val q50 = Stat.exactQuantile(netmon, 0.5)
    val q90 = Stat.exactQuantile(netmon, 0.9)
    val q99 = Stat.exactQuantile(netmon, 0.99)
    assert(math.abs(q50 - 798) < 40, s"Q0.5 = $q50 (paper 798)")
    assert(math.abs(q90 - 1247) < 120, s"Q0.9 = $q90 (paper 1247)")
    assert(math.abs(q99 - 1874) < 250, s"Q0.99 = $q99 (paper 1874)")
  }

  test("netmon has a heavy capped tail") {
    val max = netmon.max
    assert(max > 20000 && max <= 80000, s"max = $max (paper 74265)")
    val q999 = Stat.exactQuantile(netmon, 0.999)
    assert(q999 > 3000, s"Q0.999 = $q999 should sit deep in the tail")
  }

  test("netmon is duplicate-heavy (integer microseconds)") {
    val unique = netmon.distinct.length.toDouble / netmon.length
    assert(unique < 0.05, s"unique fraction $unique (paper reports 0.08% over 1h)")
    assert(netmon.forall(v => v == math.rint(v)))
  }

  test("search caps at the 200ms SLA with tail mass at the cap") {
    assert(search.max == 200000.0)
    val atCap = search.count(_ == 200000.0).toDouble / search.length
    assert(atCap > 0.001, s"SLA-capped fraction $atCap should be noticeable")
    val q50 = Stat.exactQuantile(search, 0.5)
    assert(math.abs(q50 - 20000) / 20000 < 0.1, s"Q0.5 = $q50")
  }

  test("search tail quantiles are dense (footnote 1 behaviour)") {
    val q999 = Stat.exactQuantile(search, 0.999)
    val q9999 = Stat.exactQuantile(search, 0.9999)
    assert((q9999 - q999) / q999 < 0.05, "tail should be compressed near the SLA cap")
  }

  test("pareto matches the paper's quantile anchors") {
    val q50 = Stat.exactQuantile(pareto, 0.5)
    val q999 = Stat.exactQuantile(pareto, 0.999)
    assert(math.abs(q50 - 20) <= 2, s"Q0.5 = $q50 (paper 20)")
    assert(q999 > 5000 && q999 < 20000, s"Q0.999 = $q999 (paper 10000)")
    assert(pareto.max <= 1.1e9)
    assert(pareto.min >= 10.0)
  }

  test("normal has the requested mean and spread") {
    val data = Telemetry.normal(N.toLong).toArray
    val mean = data.sum / data.length
    val sd = math.sqrt(data.map(v => (v - mean) * (v - mean)).sum / data.length)
    assert(math.abs(mean - 1e6) < 1000, s"mean $mean")
    assert(math.abs(sd - 5e4) < 1000, s"sd $sd")
  }

  test("uniform stays in [90, 110]") {
    val data = Telemetry.uniform(50000).toArray
    assert(data.min >= 90.0 && data.max <= 110.0)
    val mean = data.sum / data.length
    assert(math.abs(mean - 100.0) < 0.5)
  }

  test("ar1 preserves the stationary marginal for any psi") {
    for (psi <- Seq(0.0, 0.2, 0.8)) {
      val data = Telemetry.ar1(100000, psi)
      val mean = data.sum / data.length
      val sd = math.sqrt(data.map(v => (v - mean) * (v - mean)).sum / data.length)
      assert(math.abs(mean - 1e6) < 3000, s"psi=$psi mean=$mean")
      assert(math.abs(sd - 5e4) / 5e4 < 0.1, s"psi=$psi sd=$sd")
    }
  }

  test("ar1 lag-1 autocorrelation approximates psi") {
    for (psi <- Seq(0.0, 0.2, 0.8)) {
      val data = Telemetry.ar1(100000, psi)
      val mean = data.sum / data.length
      var num = 0.0
      var den = 0.0
      var i = 0
      while (i < data.length - 1) {
        num += (data(i) - mean) * (data(i + 1) - mean)
        den += (data(i) - mean) * (data(i) - mean)
        i += 1
      }
      val rho = num / den
      assert(math.abs(rho - psi) < 0.05, s"psi=$psi rho=$rho")
    }
  }

  test("ar1 rejects invalid psi") {
    intercept[IllegalArgumentException](Telemetry.ar1(10, 1.0))
    intercept[IllegalArgumentException](Telemetry.ar1(10, -0.1))
  }

  test("injectBurst scales the top values of every (N/P)-th sub-window by 10") {
    val base = Array.tabulate(800)(i => 100.0 + (i % 50))
    val out = Telemetry.injectBurst(base, windowSize = 400, period = 100, phi = 0.99)
    // nSub = 4 -> sub-windows 0 and 4 get bursts; top ceil(400*0.01)=4 values each
    val changed = out.zip(base).zipWithIndex.filter { case ((a, b), _) => a != b }
    assert(changed.nonEmpty)
    changed.foreach { case ((a, b), i) =>
      assert(a == b * 10, s"index $i")
      assert(i / 100 == 0 || i / 100 == 4, s"burst outside expected sub-windows at $i")
    }
    assert(changed.count(_._2 < 100) == 4)
    assert(changed.count(c => c._2 >= 400 && c._2 < 500) == 4)
  }

  test("injectBurst leaves other sub-windows untouched") {
    val base = Telemetry.netmon(2000).toArray
    val out = Telemetry.injectBurst(base, 1000, 250, 0.999)
    (250 until 1000).foreach(i => assert(out(i) == base(i)))
    (1250 until 2000).foreach(i => assert(out(i) == base(i)))
  }

  test("injectBurst validates window/period") {
    intercept[IllegalArgumentException](
      Telemetry.injectBurst(new Array[Double](10), 100, 30, 0.99))
  }
}
