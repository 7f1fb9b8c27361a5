package repro.spark

import org.apache.spark.sql.{Dataset, Encoders, SparkSession, classic}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{FewKConfig, Qlove}
import scala.collection.mutable

/** A telemetry event: `seq` is the arrival order (the windowing key). */
final case class TelemetryEvent(seq: Long, value: Double)

/** Serializable per-group state of the streaming operator: the QLOVE
  * operator itself (Level-1 kernel + [[repro.core.Level2]] window) plus a
  * reorder buffer so events are applied in `seq` order regardless of
  * intra-batch shuffle order. A `seq` that was already applied or is already pending
  * fails the micro-batch.
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
    *
    * The stateful plan runs in a session of its own: the caller's SQL confs,
    * but one shuffle partition, so one state store, per stream key (one key
    * today). Under the caller's count (200 by default) each micro-batch
    * would commit that many stores, all but one empty. The caller's session
    * and conf stay as they were; a query started on the result registers
    * with the operator's session's `streams`, not the caller's. A restarted
    * query keeps the partition count its checkpoint was written with.
    */
  def attach(spark: SparkSession, events: Dataset[TelemetryEvent],
             windowSize: Long, period: Long, cfg: FewKConfig,
             quantizeDigits: Int = 3): Dataset[EvalEstimate] = {
    val own = spark.newSession().asInstanceOf[classic.SparkSession]
    spark.conf.getAll.foreach { case (k, v) => if (spark.conf.isModifiable(k)) own.conf.set(k, v) }
    own.conf.set("spark.sql.shuffle.partitions", 1L)
    import own.implicits._
    // Java serialization, not Kryo: it honours FreqSketch's writeReplace, so
    // the state carries the Level-1 kernel's occupied slots only, where
    // Kryo's field serializer would copy its dense count array whole.
    implicit val stateEnc = Encoders.javaSerialization[StreamQloveState]
    new classic.Dataset(own, events.queryExecution.analyzed, Encoders.product[TelemetryEvent])
      .groupByKey(_ => 0)
      .flatMapGroupsWithState[StreamQloveState, EvalEstimate](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        (_: Int, batch: Iterator[TelemetryEvent], state: GroupState[StreamQloveState]) =>
          val st = state.getOption.getOrElse(new StreamQloveState(
            new Qlove(windowSize, period, cfg.phis, cfg, quantizeDigits),
            0L, mutable.TreeMap.empty))
          batch.foreach { e =>
            require(e.seq >= st.nextSeq, s"event seq ${e.seq} was already applied (next is ${st.nextSeq})")
            require(st.pending.put(e.seq, e.value).isEmpty, s"event seq ${e.seq} arrived twice")
          }
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
