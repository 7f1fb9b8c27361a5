package repro.spark

import java.lang.Double.doubleToRawLongBits
import java.nio.file.{Files, Path}
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryException}
import repro.SparkSpec
import repro.core.{FewKConfig, Qlove}
import repro.data.Telemetry
import scala.collection.mutable.ArrayBuffer

class QloveStreamingSpec extends SparkSpec {
  private val phis = Array(0.5, 0.99)

  private def driverEstimates(data: Array[Double], n: Long, p: Long,
                              cfg: FewKConfig): Map[Long, Array[Double]] = {
    val op = new Qlove(n, p, phis, cfg)
    val out = scala.collection.mutable.Map.empty[Long, Array[Double]]
    data.zipWithIndex.foreach { case (v, i) =>
      op.insert(v)
      if ((i + 1) % p == 0 && op.windowFull)
        out((i + 1) / p - 1) = op.evaluate()
    }
    out.toMap
  }

  private def events(data: Array[Double]): Array[TelemetryEvent] =
    data.zipWithIndex.map { case (v, i) => TelemetryEvent(i.toLong, v) }

  private def bits(est: Seq[Double]): Seq[Long] = est.map(doubleToRawLongBits)

  /** Start the operator over `source`, appending every emitted evaluation to
    * `sink` (a re-emitted evaluation appears twice).
    */
  private def start(source: MemoryStream[TelemetryEvent], n: Long, p: Long, cfg: FewKConfig,
                    sink: ArrayBuffer[(Long, Seq[Double])],
                    checkpoint: Option[Path] = None): StreamingQuery = {
    val writer = QloveStreaming.attach(spark, source.toDS(), n, p, cfg)
      .writeStream.outputMode("append")
    checkpoint.foreach(c => writer.option("checkpointLocation", c.toString))
    writer.foreachBatch { (batch: Dataset[EvalEstimate], _: Long) =>
      batch.collect().foreach(e => sink.synchronized { sink += e.eval -> e.estimates })
    }.start()
  }

  private def feed(source: MemoryStream[TelemetryEvent], query: StreamingQuery,
                   batches: Iterable[Seq[TelemetryEvent]]): Unit =
    batches.foreach { b => source.addData(b); query.processAllAvailable() }

  /** The operator runs one state store for its one stream key, whatever the
    * caller's `spark.sql.shuffle.partitions`.
    */
  private def assertOneStatePartition(query: StreamingQuery): Unit = {
    val counts = query.recentProgress.flatMap(_.stateOperators).map(_.numShufflePartitions)
    assert(counts.nonEmpty && counts.forall(_ == 1), s"state partitions ${counts.distinct.mkString(",")}")
  }

  private def newSource(): MemoryStream[TelemetryEvent] = {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    MemoryStream[TelemetryEvent]
  }

  /** Run the streaming operator over `data` fed in `chunks` micro-batches
    * and collect every emitted evaluation.
    */
  private def runStreaming(data: Array[Double], n: Long, p: Long,
                           cfg: FewKConfig, chunks: Int,
                           shuffleWithinBatch: Boolean = false): Map[Long, Seq[Double]] = {
    val source = newSource()
    val sink = ArrayBuffer.empty[(Long, Seq[Double])]
    val query = start(source, n, p, cfg, sink)
    val rnd = new scala.util.Random(99)
    feed(source, query, events(data).grouped(math.max(1, data.length / chunks)).map { chunk =>
      if (shuffleWithinBatch) rnd.shuffle(chunk.toSeq) else chunk.toSeq
    }.toSeq)
    query.stop()
    assertOneStatePartition(query)
    sink.toMap
  }

  /** Feed `batches` to a new query and return the message chain of the
    * error it fails with.
    */
  private def failure(batches: Seq[Seq[TelemetryEvent]]): String = {
    val source = newSource()
    val query = start(source, 1024, 512, FewKConfig.disabled(phis), ArrayBuffer.empty)
    try {
      val e = intercept[StreamingQueryException](feed(source, query, batches))
      Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" / ")
    } finally query.stop()
  }

  test("streaming operator equals the driver operator across micro-batches") {
    val data = Telemetry.netmon(8000).toArray
    val cfg = FewKConfig.disabled(phis)
    val want = driverEstimates(data, 2048, 512, cfg)
    val got = runStreaming(data, 2048, 512, cfg, chunks = 7)
    assert(got.keySet == want.keySet)
    got.foreach { case (eval, est) =>
      assert(est == want(eval).toSeq, s"eval $eval")
    }
  }

  test("intra-batch event order does not matter (reorder buffer)") {
    val data = Telemetry.netmon(4096).toArray
    val cfg = FewKConfig.disabled(phis)
    val want = driverEstimates(data, 1024, 512, cfg)
    val got = runStreaming(data, 1024, 512, cfg, chunks = 4, shuffleWithinBatch = true)
    assert(got.keySet == want.keySet)
    got.foreach { case (eval, est) => assert(est == want(eval).toSeq, s"eval $eval") }
  }

  test("few-k configuration flows through the streaming state") {
    val base = Telemetry.netmon(6000).toArray
    val data = Telemetry.injectBurst(base, 1024, 256, 0.99)
    val cfg = FewKConfig.sampleOnly(1024, phis, 0.5)
    val want = driverEstimates(data, 1024, 256, cfg)
    val got = runStreaming(data, 1024, 256, cfg, chunks = 5)
    assert(got.keySet == want.keySet)
    got.foreach { case (eval, est) => assert(est == want(eval).toSeq, s"eval $eval") }
  }

  test("one evaluation per period once the window is full") {
    val data = Telemetry.netmon(5120).toArray
    val got = runStreaming(data, 1024, 512, FewKConfig.disabled(phis), chunks = 3)
    // subs 0..9; first full window ends at sub 1 -> evals 1..9
    assert(got.keySet == (1L to 9L).toSet)
  }

  test("attach leaves the caller's session alone: its partition count and batch answers") {
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    val data = Telemetry.netmon(6144).toArray
    val cfg = FewKConfig.disabled(phis)
    val want = driverEstimates(data, 2048, 512, cfg)
    runStreaming(data, 2048, 512, cfg, chunks = 3)
    assert(spark.conf.get("spark.sql.shuffle.partitions") == partitions)
    import spark.implicits._
    val df = spark.sparkContext.parallelize(data.indices.map(i => (i.toLong, data(i))), 8)
      .toDF("seq", "value")
    val got = QloveBatch.estimates(spark, df, 2048, 512, cfg).collect()
    assert(got.map(_.eval).toSet == want.keySet)
    got.foreach { e =>
      e.estimates.zip(want(e.eval)).foreach { case (g, w) =>
        assert(math.abs(g - w) <= 1e-9 * math.max(1.0, math.abs(w)), s"eval ${e.eval}")
      }
    }
  }

  test("a query restarted from its checkpoint resumes bit for bit, replaying an uncommitted batch") {
    val data = Telemetry.netmon(8000).toArray
    val cfg = FewKConfig.disabled(phis)
    val want = driverEstimates(data, 2048, 512, cfg)
    val batches = events(data).grouped(1000).map(_.toSeq).toSeq
    val source = newSource()
    val sink = ArrayBuffer.empty[(Long, Seq[Double])]
    val checkpoint = Files.createTempDirectory("qlove-restart")
    try {
      val first = start(source, 2048, 512, cfg, sink, Some(checkpoint))
      feed(source, first, batches.take(4))
      first.stop()
      assertOneStatePartition(first)
      // A crash after the last batch's state commit but before its batch
      // commit: the restarted query re-runs that batch from the offset log,
      // on the state of the batch before it.
      val replayed = first.lastProgress.batchId
      Files.delete(checkpoint.resolve(s"commits/$replayed"))
      Files.deleteIfExists(checkpoint.resolve(s"commits/.$replayed.crc"))

      val second = start(source, 2048, 512, cfg, sink, Some(checkpoint))
      second.processAllAvailable()
      feed(source, second, batches.drop(4))
      second.stop()
      assertOneStatePartition(second)
      assert(second.recentProgress.head.batchId == replayed)
    } finally new scala.reflect.io.Directory(checkpoint.toFile).deleteRecursively()

    val byEval = sink.toSeq.groupBy(_._1)
    assert(byEval.keySet == want.keySet)
    assert(sink.length > byEval.size, "the replayed batch re-emits its evaluations")
    byEval.foreach { case (eval, rows) =>
      rows.foreach { case (_, est) => assert(bits(est) == bits(want(eval).toSeq), s"eval $eval") }
    }
  }

  test("an event whose seq was already applied fails the micro-batch") {
    val ev = events(Telemetry.netmon(100).toArray)
    val msg = failure(Seq(ev.toSeq, Seq(TelemetryEvent(50, 1.0))))
    assert(msg.contains("event seq 50 was already applied"), msg)
  }

  test("a seq that is already pending fails the micro-batch") {
    val ev = events(Telemetry.netmon(100).toArray).drop(1) // seq 0 missing: all pending
    val msg = failure(Seq(ev.toSeq, Seq(TelemetryEvent(70, 1.0))))
    assert(msg.contains("event seq 70 arrived twice"), msg)
  }
}
