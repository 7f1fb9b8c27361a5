package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Output checks that fail closed: every expected output is one attempt, and
  * an output that is missing, throws, or does not match counts as failed.
  */
final class Checks {
  private var attempted_ = 0L
  private var failed_ = 0L
  private val firstFailures = new ArrayBuffer[String]()

  def attempted: Long = attempted_
  def failed: Long = failed_
  def failures: Seq[String] = firstFailures.toSeq
  def okRatio: Double = if (attempted_ == 0) 0.0 else (attempted_ - failed_).toDouble / attempted_

  def check(what: => String)(ok: => Boolean): Unit = {
    attempted_ += 1
    val passed = try ok catch { case NonFatal(_) => false }
    if (!passed) {
      failed_ += 1
      if (firstFailures.length < 10) firstFailures += what
    }
  }

  /** One attempt per expected evaluation id: the output must be present,
    * give a finite estimate for every φ, and agree with `want` under `same`.
    * Outputs nobody expected are failures too.
    */
  def evaluations(label: String, got: collection.Map[Long, Array[Double]],
                  want: collection.Map[Long, Array[Double]],
                  same: (Double, Double) => Boolean): Unit = {
    want.keys.toSeq.sorted.foreach { eval =>
      check(s"$label eval $eval") {
        val g = got(eval)
        val w = want(eval)
        Checks.finite(g, w.length) && g.indices.forall(i => same(g(i), w(i)))
      }
    }
    got.keys.filterNot(want.contains).toSeq.sorted.foreach { eval =>
      check(s"$label unexpected eval $eval")(false)
    }
  }
}

object Checks {
  def finite(est: Array[Double], nPhis: Int): Boolean =
    est != null && est.length == nPhis && est.forall(v => !v.isNaN && !v.isInfinite)

  /** Any finite value agrees: the check is finiteness alone. */
  val anyFinite: (Double, Double) => Boolean = (_, _) => true

  /** Batch pipeline tolerance (relative 1e-9, as the batch equivalence tests use). */
  val withinBatchTolerance: (Double, Double) => Boolean =
    (g, w) => math.abs(g - w) <= 1e-9 * math.max(1.0, math.abs(w))

  /** Streaming must reproduce the driver operator bit for bit. */
  val bitEqual: (Double, Double) => Boolean =
    (g, w) => java.lang.Double.doubleToRawLongBits(g) == java.lang.Double.doubleToRawLongBits(w)
}
