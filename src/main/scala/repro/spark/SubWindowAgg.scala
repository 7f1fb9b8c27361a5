package repro.spark

import org.apache.spark.sql.{Encoder, Encoders}
import org.apache.spark.sql.expressions.Aggregator
import repro.core.{FewKConfig, FreqSketch, SubWindowSummary}

/** Row-level output of Level-1 aggregation: the sub-window's element count,
  * its exact per-φ quantiles, and its per-φ [[SubWindowSummary.pools]].
  */
final case class SummaryRow(
    count: Long,
    quantiles: Seq[Double],
    pools: Seq[Seq[Double]],
)

/** Spark custom aggregate implementing QLOVE's Level-1 sub-window summary
  * (paper Algorithm 1) as an `Aggregator`, registered via
  * `functions.udaf` / `spark.udf.register` — the *extension point* for the
  * paper's incremental operator in Catalyst. The buffer is the driver's
  * Level-1 kernel, [[FreqSketch]]; `merge` adds its counts and concatenates
  * its buffers, so Spark's partial aggregation across partitions is the same
  * compression the paper's red-black tree performs on the hot path.
  */
final class SubWindowAgg(
    cfg: FewKConfig,
    quantizeDigits: Int,
) extends Aggregator[Double, FreqSketch, SummaryRow] {
  override def zero: FreqSketch = new FreqSketch

  override def reduce(b: FreqSketch, v: Double): FreqSketch = {
    b.accumulateQuantized(v, quantizeDigits)
    b
  }

  override def merge(a: FreqSketch, b: FreqSketch): FreqSketch = a.merge(b)

  override def finish(b: FreqSketch): SummaryRow = {
    require(b.count > 0, "empty sub-window")
    SummaryRow(b.count, b.computeResult(cfg.phis).toSeq,
      SubWindowSummary.pools(b, cfg).map(_.toSeq).toSeq)
  }

  /** Java serialization writes the kernel's occupied slots only. */
  override def bufferEncoder: Encoder[FreqSketch] = Encoders.javaSerialization[FreqSketch]

  override def outputEncoder: Encoder[SummaryRow] = Encoders.product[SummaryRow]
}
