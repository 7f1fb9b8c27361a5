package repro.perfbench

import scala.collection.mutable

/** A reported figure with the number of samples behind it and, for a
  * median, the range of those samples.
  */
final case class Metric(value: Double, unit: String, samples: Int,
                        range: Option[(Double, Double)] = None,
                        tail: Option[(Double, Double)] = None)

/** What one run reports: end-to-end metrics, per-layer metrics (traced
  * runs), the output checks, and the tracing overhead (traced runs).
  */
final class Result {
  val endToEnd: mutable.LinkedHashMap[String, Metric] = mutable.LinkedHashMap.empty
  val perLayer: mutable.LinkedHashMap[String, Metric] = mutable.LinkedHashMap.empty
  val checks = new Checks
  var overheadPct: Option[Double] = None

  def e2e(name: String, value: Double, unit: String, samples: Int): Unit =
    endToEnd(name) = Metric(value, unit, samples)

  /** The median of `xs` times `scale`, with its range and highest
    * supported percentile.
    */
  def e2eMedian(name: String, xs: Samples, scale: Double, unit: String): Unit =
    endToEnd(name) = Metric(xs.median * scale, unit, xs.count, Some((xs.min * scale, xs.max * scale)),
      xs.tail.map { case (q, v) => (q, v * scale) })

  def layer(name: String, value: Double, unit: String, samples: Int): Unit =
    perLayer(name) = Metric(value, unit, samples)

  /** Accuracy and space, from outputs checked outside the timed passes.
    * Value errors are a function of the seed's stream, with a quartile spread
    * across seeds of 10% (Q0.5) to over 100% (Q0.999), so they are reported
    * with the core layer rather than bounded end to end.
    */
  def accuracy(phis: Array[Double], valueErrPct: Array[Double], spaceVars: Long, evals: Int): Unit = {
    phis.indices.foreach(i => layer(s"core.value_err_q${phis(i)}_pct", valueErrPct(i), "%", evals))
    e2e("space_vars", spaceVars.toDouble, "count", evals)
  }
}

object Accuracy {
  /** Average relative value error (%) per φ, as the harness defines it. */
  def valueErrPct(est: Seq[Array[Double]], exact: Seq[Array[Double]]): Array[Double] = {
    require(est.length == exact.length && est.nonEmpty, s"${est.length} estimates vs ${exact.length} exact")
    exact.head.indices.map { q =>
      est.indices.map { k =>
        val b = exact(k)(q)
        if (b != 0.0) math.abs(est(k)(q) - b) / math.abs(b) else math.abs(est(k)(q) - b)
      }.sum * 100.0 / est.length
    }.toArray
  }
}
