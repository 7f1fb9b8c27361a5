package repro.perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer: `name` is `<layer>.<call>`, `parent` the id
  * of the enclosing span (-1 at the root).
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder around the benchmark's calls into each layer.
  * When disabled, `span` only evaluates its body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = new ArrayBuffer[Span]()
  private var open: List[Int] = Nil

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.length
      val parent = open.headOption.getOrElse(-1)
      spans += null // reserve the id so children get later ones
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Self time grouped by `key` (the layer, or the span name): each span's
    * duration minus the part its direct children cover (children never
    * overlap: the loop is single-threaded).
    */
  def selfNs(key: Span => String): Seq[(String, Long)] = {
    val childNs = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    spans.groupMapReduce(key)(s => s.durNs - childNs(s.id))(_ + _)
      .toSeq.sortBy(-_._2)
  }

  /** Write every span as one JSON object per line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val w = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally w.close()
  }
}

object Tracer {
  val Off = new Tracer(false)
}
