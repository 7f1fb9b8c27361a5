package repro.spark

import org.apache.spark.sql.{Dataset, Encoders, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{FewKConfig, Qlove}
import scala.collection.mutable

/** A telemetry event: `seq` is the arrival order (the windowing key). */
final case class TelemetryEvent(seq: Long, value: Double)

/** Serializable per-group state of the streaming operator: the QLOVE
  * operator itself (Level-1 kernel + Level-2 summary deque) plus a reorder
  * buffer so events are applied in `seq` order regardless of intra-batch
  * shuffle order.
  */
final class StreamQloveState(
    val op: Qlove,
    var nextSeq: Long,
    val pending: mutable.TreeMap[Long, Double],
) extends Serializable

/** QLOVE as a Structured Streaming *stateful aggregation*: sliding-window
  * quantiles over an unbounded event stream via `flatMapGroupsWithState`.
  * Accumulate maps to state update on each micro-batch, sub-window sealing
  * and Level-2 deaccumulation happen inside the retained [[Qlove]] state, and
  * ComputeResult emits one [[EvalEstimate]] row per completed window period —
  * the paper's incremental-evaluation contract (§2) on Spark's native
  * stateful operator extension point.
  */
object QloveStreaming {

  /** Attach the stateful operator to `events`. One logical stream == one
    * state group (keyed by constant), matching the paper's single-stream
    * query Q_monitor; `eval` in the output is the absolute index of the
    * window's most recent sub-window, identical to [[QloveBatch.estimates]].
    */
  def attach(spark: SparkSession, events: Dataset[TelemetryEvent],
             windowSize: Long, period: Long, cfg: FewKConfig,
             quantizeDigits: Int = 3): Dataset[EvalEstimate] = {
    import spark.implicits._
    // Java serialization: the state graph (Qlove -> FreqSketch's compact form
    // / scala ArrayDeque / mutable.TreeMap) is Serializable end-to-end, which
    // Kryo's field serializers are not able to reconstruct for
    // scala.mutable.TreeMap.
    implicit val stateEnc = Encoders.javaSerialization[StreamQloveState]
    events
      .groupByKey(_ => 0)
      .flatMapGroupsWithState[StreamQloveState, EvalEstimate](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        (_: Int, batch: Iterator[TelemetryEvent], state: GroupState[StreamQloveState]) =>
          val st = state.getOption.getOrElse(new StreamQloveState(
            new Qlove(windowSize, period, cfg.phis, cfg, quantizeDigits),
            0L, mutable.TreeMap.empty))
          batch.foreach(e => st.pending.put(e.seq, e.value))
          val out = mutable.ArrayBuffer.empty[EvalEstimate]
          var continue = true
          while (continue) {
            st.pending.remove(st.nextSeq) match {
              case Some(v) =>
                st.op.insert(v)
                st.nextSeq += 1
                if (st.nextSeq % period == 0 && st.op.windowFull)
                  out += EvalEstimate(st.nextSeq / period - 1, st.op.evaluate().toSeq)
              case None => continue = false
            }
          }
          state.update(st)
          out.iterator
      }
  }
}
