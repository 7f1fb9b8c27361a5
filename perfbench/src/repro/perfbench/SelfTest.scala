package repro.perfbench

import repro.harness.{PaperNumbers, Tables}
import scala.util.Try

/** The benchmark's own tests: the percentile helper refuses thin tails, and
  * every output check fails closed. Exits non-zero on any failure.
  */
object SelfTest {
  private var failures = 0

  private def expect(what: String)(cond: => Boolean): Unit = {
    val ok = Try(cond).getOrElse(false)
    if (!ok) failures += 1
    println(s"${if (ok) "ok  " else "FAIL"} $what")
  }

  def main(args: Array[String]): Unit = {
    percentiles()
    evaluationChecks()
    tableChecks()
    println(s"${failures} failure(s)")
    System.exit(if (failures == 0) 0 else 1)
  }

  private def percentiles(): Unit = {
    val xs = (n: Int) => (1 to n).map(_.toDouble)
    expect("p99 of 999 samples is refused (9 beyond)")(Stats.percentile(xs(999), 0.99).isEmpty)
    expect("p99 of 1000 samples is the 990th (10 beyond)")(Stats.percentile(xs(1000), 0.99).contains(990.0))
    expect("p50 of 19 samples is refused")(Stats.percentile(xs(19), 0.5).isEmpty)
    expect("p50 of 20 samples is the 10th")(Stats.percentile(xs(20), 0.5).contains(10.0))
    expect("minSamples matches the refusal rule")(
      Stats.minSamples(0.99) == 1000 && Stats.minSamples(0.5) == 20)
    expect("a median is reported from any non-empty sample")(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    val few = new Samples
    (1 to 100).foreach(i => few.add(i.toDouble))
    expect("Samples.percentile throws on a thin tail")(Try(few.percentile(0.99, "few")).isFailure)
  }

  private def ratio(got: Map[Long, Array[Double]], same: (Double, Double) => Boolean): Double = {
    val want = Map(3L -> Array(800.0, 1250.0), 4L -> Array(805.0, 1261.0))
    val c = new Checks
    c.evaluations("self-test", got, want, same)
    c.okRatio
  }

  private def evaluationChecks(): Unit = {
    val good = Map(3L -> Array(800.0, 1250.0), 4L -> Array(805.0, 1261.0))
    def with4(v: Double) = good.updated(4L, Array(805.0, v))
    Seq("finite" -> Checks.anyFinite, "batch" -> Checks.withinBatchTolerance,
      "streaming" -> Checks.bitEqual).foreach { case (kind, same) =>
      expect(s"$kind: matching outputs pass")(ratio(good, same) == 1.0)
      expect(s"$kind: a NaN estimate fails")(ratio(with4(Double.NaN), same) == 0.5)
      expect(s"$kind: an infinite estimate fails")(ratio(with4(Double.PositiveInfinity), same) == 0.5)
      expect(s"$kind: a missing output fails")(ratio(good - 4L, same) == 0.5)
      expect(s"$kind: a short estimate fails")(ratio(good.updated(4L, Array(805.0)), same) == 0.5)
      expect(s"$kind: an unexpected output fails")(ratio(good.updated(9L, Array(1.0, 2.0)), same) < 1.0)
    }
    expect("a streaming estimate off by 1 ulp fails")(
      ratio(with4(Math.nextUp(1261.0)), Checks.bitEqual) == 0.5)
    expect("a batch estimate off by 2e-9 relative fails")(
      ratio(with4(1261.0 * (1 + 2e-9)), Checks.withinBatchTolerance) == 0.5)
    expect("a batch estimate off by 0.5e-9 relative passes")(
      ratio(with4(1261.0 * (1 + 0.5e-9)), Checks.withinBatchTolerance) == 1.0)
    expect("a check that throws counts as failed")({
      val c = new Checks
      c.check("throws")(throw new IllegalStateException("boom"))
      c.attempted == 1 && c.failed == 1 && c.okRatio == 0.0
    })
  }

  /** The paper's own Tables 1 and 2 satisfy every shape claim; a NaN in
    * QLOVE's Q0.999 cell fails the claims that read it.
    */
  private def tableChecks(): Unit = {
    val rows = PaperNumbers.table1.toSeq.map { case (p, (rank, value, analytical, observed)) =>
      Tables.Table1Row(p, rank, value, Try(analytical.toLong).getOrElse(-1L), observed)
    }
    def run(rows: Seq[Tables.Table1Row], t2: Map[Long, Array[Double]]): Checks = {
      val c = new Checks
      TableChecks(c, rows, t2)
      c
    }
    val good = run(rows, PaperNumbers.table2)
    expect("the paper's tables pass all 60 shape checks")(good.attempted == 60 && good.failed == 0)
    val nan = rows.map(r => if (r.policy == "QLOVE") r.copy(valueErrorPct = r.valueErrorPct.updated(3, Double.NaN)) else r)
    expect("a NaN table cell fails the checks that read it")(run(nan, PaperNumbers.table2).okRatio < 1.0)
    expect("a missing table column fails")(run(rows, PaperNumbers.table2 - 1024L).okRatio < 1.0)
  }
}
