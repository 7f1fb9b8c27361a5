package repro.perfbench

import java.nio.file.Path
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.spark.{EvalEstimate, QloveBatch, QloveStreaming, TelemetryEvent}
import scala.collection.concurrent.TrieMap

/** The Spark paths as the benchmark drives them: a `local[nproc]` session,
  * the batch pipeline, and the streaming operator fed P-event micro-batches.
  * Settings the program leaves unset keep Spark's defaults (200 shuffle
  * partitions among them), so the single-group streaming cost stays visible.
  */
object SparkSide {
  val cores: Int = Runtime.getRuntime.availableProcessors()

  def session(scratch: Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", scratch.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", scratch.resolve("warehouse").toString)
      .getOrCreate()

  /** The stream as a cached (`seq`, `value`) frame, materialized. */
  def events(spark: SparkSession, stream: Array[Double]): DataFrame = {
    import spark.implicits._
    val df = spark.sparkContext
      .parallelize(stream.indices.map(i => (i.toLong, stream(i))), cores)
      .toDF("seq", "value")
      .cache()
    df.count()
    df
  }

  /** One batch job: the collected window estimates by eval id, and its ns. */
  def batch(spark: SparkSession, df: DataFrame, in: Input): (Map[Long, Array[Double]], Long) = {
    val (rows, ns) = Loop.nanos(
      QloveBatch.estimates(spark, df, in.windowSize, in.period, in.cfg).collect())
    (rows.map(e => e.eval -> e.estimates.toArray).toMap, ns)
  }

  /** Stage 1 alone: sub-window summaries collected, in ns. */
  def stage1(df: DataFrame, in: Input): Long =
    Loop.nanos(QloveBatch.subWindowSummaries(df, in.period, in.cfg).collect())._2

  /** Tasks run and shuffle bytes written while `body` runs. */
  def taskCounts(spark: SparkSession)(body: => Unit): (Long, Long) = {
    val tasks = new AtomicLong
    val bytes = new AtomicLong
    val listener = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
        tasks.incrementAndGet()
        if (e.taskMetrics != null) bytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
      }
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      body
      // the listener bus is asynchronous: wait until the counts settle
      var last = -1L
      var waited = 0
      while (tasks.get != last && waited < 50) { last = tasks.get; Thread.sleep(100); waited += 1 }
    } finally spark.sparkContext.removeSparkListener(listener)
    (tasks.get, bytes.get)
  }

  /** The streaming operator over `in.stream`, fed in order from event 0. */
  final class Stream(spark: SparkSession, in: Input, checkpoint: Path) {
    private val source = {
      import spark.implicits._
      MemoryStream[TelemetryEvent](spark)
    }
    val sink: TrieMap[Long, Array[Double]] = TrieMap.empty
    private val query = QloveStreaming.attach(spark, source.toDS(), in.windowSize, in.period, in.cfg)
      .writeStream.outputMode("append")
      .option("checkpointLocation", checkpoint.toString)
      .foreachBatch { (b: Dataset[EvalEstimate], _: Long) =>
        b.collect().foreach(e => sink(e.eval) = e.estimates.toArray)
      }
      .start()
    private var next = 0

    /** Hand the operator the next `count` events as one micro-batch and wait
      * until it has processed them; returns the ns taken.
      */
    def add(count: Int): Long = {
      val batch = (next until next + count).map(i => TelemetryEvent(i.toLong, in.stream(i)))
      next += count
      Loop.nanos { source.addData(batch); query.processAllAvailable() }._2
    }

    def progress: Seq[StreamingQueryProgress] = query.recentProgress.toSeq

    def stop(): Unit = query.stop()
  }

  /** The per-layer Spark metrics, from stage-1 and batch timings, one
    * counted batch job, and the progress of the P-event micro-batches.
    */
  def layerMetrics(res: Result, stage1Ns: Samples, batchNs: Samples, tasks: Long,
                   shuffleBytes: Long, progress: Seq[StreamingQueryProgress], period: Long): Unit = {
    res.layer("spark.stage1_s", stage1Ns.median / 1e9, "s", stage1Ns.count)
    res.layer("spark.stage2_s", (batchNs.median - stage1Ns.median) / 1e9, "s", batchNs.count)
    res.layer("spark.tasks", tasks.toDouble, "count", 1)
    res.layer("spark.shuffle_bytes", shuffleBytes.toDouble, "bytes", 1)
    val timed = progress.filter(_.numInputRows == period)
    require(timed.nonEmpty, "no P-event micro-batch progress recorded")
    def med(f: StreamingQueryProgress => Double): Double = Stats.median(timed.map(f))
    res.layer("stream.trigger_ms", med(_.durationMs.get("triggerExecution").toDouble), "ms", timed.length)
    res.layer("stream.add_batch_ms", med(_.durationMs.get("addBatch").toDouble), "ms", timed.length)
    res.layer("stream.state_bytes", med(_.stateOperators.head.memoryUsedBytes.toDouble), "bytes", timed.length)
    res.layer("stream.state_commit_ms", med(_.stateOperators.head.commitTimeMs.toDouble), "ms", timed.length)
    res.layer("stream.shuffle_partitions", timed.last.stateOperators.head.numShufflePartitions.toDouble,
      "count", 1)
  }

  def scratchDir(out: Path, name: String): Path = out.resolve("tmp").resolve(name)
}
