package repro.harness

import repro.baselines.{ArasuManku, Cmqs, MomentSketchPolicy, RandomSampling}
import repro.core.{FewKConfig, Qlove}
import repro.data.Telemetry

/** Reproduction harnesses, one per evaluation-section table. Each returns
  * structured results plus a rendered text block; bench suites assert shape
  * claims on the structured results and jobs print the text. Scale defaults
  * to REPRO_EVENTS (2M) events instead of the paper's 10M — enough window
  * evaluations for stable averages (see DESIGN.md §4).
  */
object Tables {
  /** Q_monitor's quantile set (§5.1). */
  val Phis: Array[Double] = Array(0.5, 0.9, 0.99, 0.999)
  /** 128K window / 16K period of Tables 1, 5 (binary K: the paper's
    * "128K(1-0.999) = 132" identity only holds for N = 131072).
    */
  val WindowN: Long = 131072L
  val PeriodP: Long = 16384L
  val Epsilon: Double = 0.02
  val MomentK: Int = 12

  def defaultEvents: Long = sys.env.getOrElse("REPRO_EVENTS", "2000000").toLong

  private def fmtPct(v: Double): String = f"$v%.2f"

  // ---- Table 1 --------------------------------------------------------------

  final case class Table1Row(policy: String, rankError: Array[Double],
                             valueErrorPct: Array[Double],
                             analyticalSpace: Long, observedSpace: Long)

  /** Accuracy and space of the five approximation policies on NetMon
    * (window 128K, period 16K, ε = 0.02, Moment K = 12).
    */
  def table1(nEvents: Long = defaultEvents, seed: Long = 7L): Seq[Table1Row] =
    table1On(Telemetry.netmonArray(nEvents, seed))

  /** Table 1 over a given event stream. */
  def table1On(data: Array[Double]): Seq[Table1Row] = {
    val policies = Seq(
      new Qlove(WindowN, PeriodP, Phis, FewKConfig.disabled(Phis)),
      new Cmqs(WindowN, PeriodP, Phis, Epsilon),
      new ArasuManku(WindowN, PeriodP, Phis, Epsilon),
      new RandomSampling(WindowN, PeriodP, Phis, Epsilon),
      new MomentSketchPolicy(WindowN, PeriodP, Phis, MomentK),
    )
    SlidingEval.run(data, WindowN, PeriodP, Phis, policies).map { r =>
      Table1Row(r.policy, r.rankError, r.valueErrorPct, r.analyticalSpace, r.observedSpace)
    }
  }

  def renderTable1(rows: Seq[Table1Row]): String = {
    val hdr = f"${"Policy"}%-8s | ${"e'(Q.5)"}%8s ${"e'(Q.9)"}%8s ${"e'(Q.99)"}%9s ${"e'(Q.999)"}%10s | " +
      f"${"v%(Q.5)"}%8s ${"v%(Q.9)"}%8s ${"v%(Q.99)"}%9s ${"v%(Q.999)"}%10s | ${"Analytical"}%10s ${"Observed"}%9s"
    val lines = rows.map { r =>
      f"${r.policy}%-8s | ${r.rankError(0)}%8.4f ${r.rankError(1)}%8.4f ${r.rankError(2)}%9.4f ${r.rankError(3)}%10.4f | " +
        f"${r.valueErrorPct(0)}%8.2f ${r.valueErrorPct(1)}%8.2f ${r.valueErrorPct(2)}%9.2f ${r.valueErrorPct(3)}%10.2f | " +
        f"${r.analyticalSpace}%10d ${r.observedSpace}%9d"
    }
    (hdr +: lines).mkString("\n")
  }

  // ---- Table 2 --------------------------------------------------------------

  /** QLOVE value errors (%) without few-k merging, per period size
    * (columns 64K..1K) and quantile (rows), 128K window on NetMon.
    */
  val Table2Periods: Seq[Long] = Seq(65536L, 32768L, 16384L, 8192L, 4096L, 2048L, 1024L)

  def table2(nEvents: Long = defaultEvents, seed: Long = 7L): Map[Long, Array[Double]] = {
    val data = Telemetry.netmonArray(nEvents, seed)
    val rs = SlidingEval.sweep(data, WindowN, Phis,
      Table2Periods.map(p => new Qlove(WindowN, p, Phis, FewKConfig.disabled(Phis)) -> p))
    Table2Periods.zip(rs).map { case (p, r) => p -> r.valueErrorPct }.toMap
  }

  def renderTable2(res: Map[Long, Array[Double]]): String = {
    val hdr = f"${"Quantile"}%-8s | " + Table2Periods.map(p => f"${p / 1024}%5dK").mkString(" ")
    val lines = Phis.indices.map { qi =>
      f"${Phis(qi)}%-8s | " + Table2Periods.map(p => f"${fmtPct(res(p)(qi))}%6s").mkString(" ")
    }
    (hdr +: lines).mkString("\n")
  }

  // ---- Table 3 --------------------------------------------------------------

  val Table3Periods: Seq[Long] = Seq(8192L, 4096L, 2048L, 1024L)
  val Table3Fractions: Seq[Double] = Seq(0.1, 0.5)

  final case class FewKCell(valueErrorPct: Double, fewkSpace: Long)

  /** Top-k merging on NetMon Q0.999: average error (and cached few-k space)
    * per (fraction, period), 128K window.
    */
  def table3(nEvents: Long = defaultEvents, seed: Long = 7L): Map[(Double, Long), FewKCell] = {
    val data = Telemetry.netmonArray(nEvents, seed)
    val qi = Phis.indexOf(0.999)
    val cells = for (f <- Table3Fractions; p <- Table3Periods)
      yield ((f, p), new Qlove(WindowN, p, Phis, FewKConfig.topOnly(WindowN, p, Phis, f)))
    val rs = SlidingEval.sweep(data, WindowN, Phis, cells.map { case ((_, p), pol) => pol -> p })
    cells.zip(rs).map { case ((cell, pol), r) =>
      cell -> FewKCell(r.valueErrorPct(qi), pol.fewkObservedSpace(qi))
    }.toMap
  }

  def renderTable34(res: Map[(Double, Long), FewKCell], fractions: Seq[Double],
                    periods: Seq[Long]): String = {
    val hdr = f"${"Fraction"}%-8s | " + periods.map(p => f"${p / 1024}%dK cell (err%%, space)").mkString(" | ")
    val lines = fractions.map { f =>
      f"$f%-8s | " + periods.map { p =>
        val c = res((f, p))
        f"${fmtPct(c.valueErrorPct)}%6s (${c.fewkSpace}%d)"
      }.mkString(" | ")
    }
    (hdr +: lines).mkString("\n")
  }

  // ---- Table 4 --------------------------------------------------------------

  val Table4Periods: Seq[Long] = Seq(16384L, 4096L)
  val Table4Fractions: Seq[Double] = Seq(0.0, 0.1, 0.5)

  final case class Table4Cell(q99ErrPct: Double, q999ErrPct: Double, fewkSpace: Long)

  /** Sample-k merging under injected bursts (10× the top N(1-0.999) values of
    * every (N/P)-th sub-window), NetMon, 128K window.
    */
  def table4(nEvents: Long = defaultEvents, seed: Long = 7L): Map[(Double, Long), Table4Cell] = {
    val base = Telemetry.netmonArray(nEvents, seed)
    val qi99 = Phis.indexOf(0.99)
    val qi999 = Phis.indexOf(0.999)
    // the burst stream depends on P: one sweep per period
    Table4Periods.flatMap { p =>
      val data = Telemetry.injectBurst(base, WindowN, p, 0.999)
      val pols = Table4Fractions.map(f => new Qlove(WindowN, p, Phis, FewKConfig.sampleOnly(WindowN, Phis, f)))
      val rs = SlidingEval.sweep(data, WindowN, Phis, pols.map(_ -> p))
      Table4Fractions.lazyZip(pols).lazyZip(rs).map { (f, pol, r) =>
        // the paper's parenthesized space is w.r.t. the exact Q0.999 cache
        (f, p) -> Table4Cell(r.valueErrorPct(qi99), r.valueErrorPct(qi999),
          pol.fewkObservedSpace(qi999))
      }
    }.toMap
  }

  def renderTable4(res: Map[(Double, Long), Table4Cell]): String = {
    val hdr = f"${"Fraction"}%-8s | " +
      Table4Periods.map(p => f"${p / 1024}%dK: Q0.99 / Q0.999 (space)").mkString(" | ")
    val lines = Table4Fractions.map { f =>
      f"$f%-8s | " + Table4Periods.map { p =>
        val c = res((f, p))
        f"${fmtPct(c.q99ErrPct)}%6s / ${fmtPct(c.q999ErrPct)}%6s (${c.fewkSpace}%d)"
      }.mkString(" | ")
    }
    (hdr +: lines).mkString("\n")
  }

  // ---- Table 5 --------------------------------------------------------------

  val Table5Psis: Seq[Double] = Seq(0.0, 0.2, 0.8)
  val Table5Phis: Array[Double] = Array(0.5, 0.9, 0.99)

  /** AR(1) non-i.i.d. study: average relative errors (as fractions, matching
    * the paper's 1e-5..1e-3 scale) per ψ and quantile, 128K/16K window.
    */
  def table5(nEvents: Long = defaultEvents, seed: Long = 12L): Map[Double, Array[Double]] = {
    Table5Psis.map { psi =>
      val data = Telemetry.ar1(nEvents, psi, seed = seed)
      // quantization off: the paper's 1e-5..1e-3 error scale on values ~1e6
      // is below the 0.5% error floor of 3-significant-digit compression
      val r = SlidingEval.run(data, WindowN, PeriodP, Table5Phis,
        Seq(new Qlove(WindowN, PeriodP, Table5Phis, FewKConfig.disabled(Table5Phis),
          quantizeDigits = 0))).head
      psi -> r.valueErrorPct.map(_ / 100.0)
    }.toMap
  }

  def renderTable5(res: Map[Double, Array[Double]]): String = {
    val hdr = f"${"psi"}%-5s | " + Table5Phis.map(p => f"$p%10s").mkString(" ")
    val lines = Table5Psis.map { psi =>
      f"$psi%-5s | " + res(psi).map(e => f"$e%10.3e").mkString(" ")
    }
    (hdr +: lines).mkString("\n")
  }
}

/** The paper's reported numbers, kept next to ours for EXPERIMENTS.md and
  * bench-output diffs.
  */
object PaperNumbers {
  /** Table 1 — (rank errors, value errors %, analytical, observed) per policy. */
  val table1: Map[String, (Array[Double], Array[Double], String, Long)] = Map(
    "QLOVE" -> (Array(0.0016, 0.0005, 0.0002, 0.0001), Array(0.10, 0.06, 0.78, 4.40), "16416", 3340L),
    "CMQS" -> (Array(0.0034, 0.0018, 0.0009, 0.0007), Array(0.31, 0.26, 1.78, 28.47), "33504", 31194L),
    "AM" -> (Array(0.0020, 0.0011, 0.0004, 0.0004), Array(0.24, 0.20, 0.94, 13.25), "45309", 36253L),
    "Random" -> (Array(0.0021, 0.0012, 0.0005, 0.0005), Array(0.20, 0.20, 1.00, 16.69), "45611", 68001L),
    "Moment" -> (Array(0.018, 0.0017, 0.0004, 0.0002), Array(0.98, 0.28, 0.76, 9.30), "NA", 16596L),
  )

  /** Table 2 — value error % per (period, φ index in Tables.Phis). */
  val table2: Map[Long, Array[Double]] = Map(
    65536L -> Array(0.04, 0.03, 0.13, 1.82),
    32768L -> Array(0.06, 0.04, 0.27, 3.31),
    16384L -> Array(0.10, 0.06, 0.78, 4.40),
    8192L -> Array(0.15, 0.08, 1.27, 7.04),
    4096L -> Array(0.22, 0.10, 1.73, 10.46),
    2048L -> Array(0.28, 0.14, 2.27, 10.55),
    1024L -> Array(0.35, 0.27, 3.39, 18.93),
  )

  /** Table 3 — (error %, space) per (fraction, period). */
  val table3: Map[(Double, Long), (Double, Long)] = Map(
    (0.1, 8192L) -> (5.54, 209L), (0.1, 4096L) -> (2.43, 419L),
    (0.1, 2048L) -> (1.67, 838L), (0.1, 1024L) -> (1.30, 1677L),
    (0.5, 8192L) -> (0.68, 1049L), (0.5, 4096L) -> (0.40, 2097L),
    (0.5, 2048L) -> (0.36, 4194L), (0.5, 1024L) -> (0.35, 8389L),
  )

  /** Table 4 — (Q0.99 err %, Q0.999 err %, Q0.999 space) per (fraction, period). */
  val table4: Map[(Double, Long), (Double, Double, Long)] = Map(
    (0.0, 16384L) -> (0.08, 44.10, 0L), (0.0, 4096L) -> (28.15, 55.36, 0L),
    (0.1, 16384L) -> (0.14, 25.97, 104L), (0.1, 4096L) -> (0.43, 17.38, 419L),
    (0.5, 16384L) -> (0.05, 1.75, 524L), (0.5, 4096L) -> (0.30, 1.52, 2097L),
  )

  /** Table 5 — error fractions per (ψ, φ index in Tables.Table5Phis). */
  val table5: Map[Double, Array[Double]] = Map(
    0.0 -> Array(3.46e-5, 1.23e-4, 8.88e-4),
    0.2 -> Array(3.47e-5, 1.39e-4, 9.84e-4),
    0.8 -> Array(5.66e-5, 3.35e-4, 1.56e-3),
  )
}
