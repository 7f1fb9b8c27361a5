package repro.perfbench

import repro.core.Qlove
import scala.collection.mutable

/** Timed-pass loops. */
object Loop {
  /** Run `pass` (which returns its own duration in ns) until `seconds` have
    * elapsed and at least `minPasses` ran, but at most `maxPasses`; returns
    * the pass durations.
    */
  def timed(seconds: Double, minPasses: Int, maxPasses: Int = Int.MaxValue)(pass: => Long): Samples = {
    val out = new Samples
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (out.count < maxPasses && (out.count < minPasses || System.nanoTime() < deadline))
      out.add(pass.toDouble)
    out
  }

  /** The timed phase of a job. Untraced, it runs `pass` for `seconds`. Traced,
    * it runs half the time untraced and half traced, and also returns the
    * tracing overhead: traced median over untraced median, minus one.
    */
  def job(seconds: Double, minPasses: Int, tracer: Tracer, maxPasses: Int = Int.MaxValue)(
      pass: Tracer => Long): (Samples, Option[Double]) =
    if (!tracer.enabled) (timed(seconds, minPasses, maxPasses)(pass(Tracer.Off)), None)
    else {
      val plain = timed(seconds / 2, minPasses, maxPasses / 2)(pass(Tracer.Off))
      val traced = timed(seconds / 2, minPasses, maxPasses / 2)(tracer.span("bench.pass")(pass(tracer)))
      (plain, Some(traced.median / plain.median - 1.0))
    }

  def nanos[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, System.nanoTime() - t0)
  }
}

/** The driver operator in a closed loop: the caller hands `Qlove.insert` one
  * event at a time and, at each period boundary, waits for `evaluate`, as a
  * Trill-style engine thread does.
  */
object DriverLoop {
  private def insertRange(op: Qlove, s: Array[Double], from: Int, until: Int): Unit = {
    var j = from
    while (j < until) { op.insert(s(j)); j += 1 }
  }

  /** One pass over the stream with a fresh operator. Records the boundary
    * `insert` (the seal), `evaluate`, and their sum (the result latency) in
    * ns; returns the estimates by eval id and the pass duration.
    */
  def pass(in: Input, tracer: Tracer, sealNs: Samples, evalNs: Samples,
           latencyNs: Samples): (mutable.LinkedHashMap[Long, Array[Double]], Long) = {
    val op = new Qlove(in.windowSize, in.period, in.phis, in.cfg)
    val p = in.period.toInt
    val out = mutable.LinkedHashMap.empty[Long, Array[Double]]
    val t0 = System.nanoTime()
    var sub = 0
    while (sub < in.periods) {
      val start = sub * p
      tracer.span("core.level1")(insertRange(op, in.stream, start, start + p - 1))
      val b0 = System.nanoTime()
      tracer.span("core.seal")(op.insert(in.stream(start + p - 1)))
      val b1 = System.nanoTime()
      sealNs.add((b1 - b0).toDouble)
      if (op.windowFull) {
        val est = tracer.span("core.evaluate")(op.evaluate())
        val b2 = System.nanoTime()
        evalNs.add((b2 - b1).toDouble)
        latencyNs.add((b2 - b0).toDouble)
        out(sub.toLong) = est
      }
      sub += 1
    }
    (out, System.nanoTime() - t0)
  }
}
