package repro.perfbench

import repro.core.FewKConfig
import repro.data.Telemetry
import repro.harness.Tables

/** One workload's generated input: a telemetry stream and the QLOVE query
  * (window N, period P, φ set, few-k configuration) run over it.
  */
final case class Input(stream: Array[Double], windowSize: Long, period: Long, cfg: FewKConfig) {
  def phis: Array[Double] = cfg.phis
  def nSub: Int = (windowSize / period).toInt
  def periods: Int = stream.length / period.toInt
  /** Window evaluations expected from one pass over the stream, keyed by the
    * absolute index of the window's most recent sub-window (the Spark paths'
    * `eval`).
    */
  def evalIds: Seq[Long] = (nSub - 1).toLong until periods.toLong
}

object Inputs {
  val Phis: Array[Double] = Tables.Phis
  val N: Long = Tables.WindowN
  /** Events of the ingest stream: 256 periods of 16K. */
  val IngestEvents: Int = 1 << 22
  /** The spark workload runs the first 64 periods of the ingest stream, so
    * that a run holds several batch jobs.
    */
  val SparkEvents: Int = 1 << 20
  /** Events of the tail-burst stream: 512 periods of 2K, 449 results a pass. */
  val BurstEvents: Int = 1 << 20
  val BurstPeriod: Long = 2048L

  /** The Table 1/2 query: N=128K, P=16K, few-k off. */
  def ingest(seed: Long, events: Int = IngestEvents): Input =
    Input(Telemetry.netmon(events, seed).toArray, N, Tables.PeriodP, FewKConfig.disabled(Phis))

  /** Few-k fully on (§4.3 three-way selection): top-k steps from
    * `topOnly(0.5)`, sample-k steps from `sampleOnly(0.5)`.
    */
  def tailBurstCfg: FewKConfig = {
    val top = FewKConfig.topOnly(N, BurstPeriod, Phis, 0.5)
    val sample = FewKConfig.sampleOnly(N, Phis, 0.5)
    FewKConfig(Phis, top.poolSize, top.topK, sample.sampleStep)
  }

  def tailBurstBase(seed: Long): Array[Double] = Telemetry.netmon(BurstEvents, seed).toArray

  def tailBurst(base: Array[Double]): Input =
    Input(Telemetry.injectBurst(base, N, BurstPeriod, 0.999, 10.0), N, BurstPeriod, tailBurstCfg)
}
