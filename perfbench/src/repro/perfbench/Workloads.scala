package repro.perfbench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{FewKConfig, Qlove}
import repro.data.Telemetry
import repro.harness.{SlidingEval, Tables}
import scala.collection.mutable

/** The four workloads. Each is a closed loop from one thread: the caller
  * waits for every call it makes into the program before making the next.
  * Each runs its set-up [[Workloads.SetupReps]] times and reports the
  * median, warms the JIT before timing, takes every timing as a median over
  * passes or results, and checks every output outside the timed passes.
  * Each returns its input, which the traced run replays layer by layer.
  */
object Workloads {
  val SetupReps = 5
  /** The first pass runs 15–20% slower than later ones. */
  val WarmSeconds = 1.5

  /** Run `make` [[SetupReps]] times; `discard` releases each result but
    * the last, outside the timing.
    */
  def timedSetup[A](tracer: Tracer, discard: A => Unit = (_: A) => ())(make: => A): (A, Samples) = {
    val setup = new Samples
    var made: Option[A] = None
    (1 to SetupReps).foreach { _ =>
      made.foreach(discard)
      val (a, ns) = Loop.nanos(tracer.span("bench.setup")(make))
      made = Some(a)
      setup.add(ns / 1e9)
    }
    (made.get, setup)
  }

  /** The driver operator's reference run over `in`: its estimates and the
    * exact ground truth at each window evaluation, by eval id.
    */
  def reference(in: Input): SlidingEval.PolicyResult =
    SlidingEval.run(in.stream, in.windowSize, in.period, in.phis,
      Seq(new Qlove(in.windowSize, in.period, in.phis, in.cfg))).head

  /** `ingest` and `tail-burst`: the driver operator, `Qlove.insert` per
    * event and `evaluate` at each period boundary.
    */
  def driver(label: String, seconds: Double, tracer: Tracer, res: Result)(make: Tracer => Input): Input = {
    val (in, setup) = timedSetup[Input](tracer)(make(tracer))
    Loop.timed(WarmSeconds, 1)(DriverLoop.pass(in, Tracer.Off, new Samples, new Samples, new Samples)._2)
    val seal, eval, latency = new Samples
    val outputs = mutable.ArrayBuffer.empty[collection.Map[Long, Array[Double]]]
    val (passNs, overhead) = Loop.job(seconds, 3, tracer) { t =>
      val (out, ns) = DriverLoop.pass(in, t, seal, eval, latency)
      outputs += out
      ns
    }
    res.overheadPct = overhead.map(_ * 100)

    val ref = reference(in)
    val want = in.evalIds.zip(ref.exacts).toMap
    outputs.foreach(out => res.checks.evaluations(label, out, want, Checks.anyFinite))
    val last = in.evalIds.map(outputs.last.getOrElse(_, Array.fill(in.phis.length)(Double.NaN)))

    res.e2eMedian("setup_s", setup, 1, "s")
    res.e2e("throughput_eps", in.periods * in.period / (passNs.median / 1e9), "ev/s", passNs.count)
    res.e2eMedian("job_s", passNs, 1e-9, "s")
    res.e2eMedian("result_latency_p50_ms", latency, 1e-6, "ms")
    res.accuracy(in.phis, Accuracy.valueErrPct(last, ref.exacts.toSeq), ref.observedSpace, ref.evaluations)
    res.layer("harness.truth_passes", 1, "count", 1)
    in
  }

  def ingest(seed: Long, seconds: Double, tracer: Tracer, res: Result): Input =
    driver("ingest", seconds, tracer, res)(t => t.span("data.generate")(Inputs.ingest(seed)))

  def tailBurst(seed: Long, seconds: Double, tracer: Tracer, res: Result): Input =
    driver("tail-burst", seconds, tracer, res) { t =>
      val base = t.span("data.generate")(Inputs.tailBurstBase(seed))
      t.span("data.inject_burst")(Inputs.tailBurst(base))
    }

  /** `reproduce`: the researcher's path, Tables 1 and 2 on 2M NetMon events. */
  val ReproduceEvents = 2000000

  def reproduce(seed: Long, seconds: Double, tracer: Tracer, res: Result): Input = {
    // The tables generate their own input; set-up generates the same stream
    // once for the traced replay.
    val (stream, setup) = timedSetup[Array[Double]](tracer)(
      tracer.span("data.generate")(Telemetry.netmon(ReproduceEvents, seed).toArray))
    Tables.table1(1 << 18, seed)
    Tables.table2(1 << 18, seed)
    val t1, t2 = new Samples
    var last: Seq[Tables.Table1Row] = Nil
    val (jobNs, overhead) = Loop.job(seconds, 2, tracer) { t =>
      val (rows, ns1) = Loop.nanos(t.span("harness.table1")(Tables.table1(ReproduceEvents, seed)))
      val (cols, ns2) = Loop.nanos(t.span("harness.table2")(Tables.table2(ReproduceEvents, seed)))
      TableChecks(res.checks, rows, cols)
      t1.add(ns1.toDouble)
      t2.add(ns2.toDouble)
      last = rows
      ns1 + ns2
    }
    res.overheadPct = overhead.map(_ * 100)
    val qlove = last.find(_.policy == "QLOVE").get
    val evals = ((ReproduceEvents - Tables.WindowN) / Tables.PeriodP + 1).toInt

    res.e2eMedian("setup_s", setup, 1, "s")
    res.e2e("throughput_eps", ReproduceEvents / (jobNs.median / 1e9), "ev/s", jobNs.count)
    res.e2eMedian("job_s", jobNs, 1e-9, "s")
    res.e2eMedian("result_latency_p50_ms", t1, 1e-6, "ms")
    res.accuracy(Tables.Phis, qlove.valueErrorPct, qlove.observedSpace, evals)
    res.layer("harness.table1_s", t1.median / 1e9, "s", t1.count)
    res.layer("harness.table2_s", t2.median / 1e9, "s", t2.count)
    res.layer("harness.truth_passes", 1 + Tables.Table2Periods.length, "count", 1)
    Input(stream, Tables.WindowN, Tables.PeriodP, FewKConfig.disabled(Tables.Phis))
  }

  /** Micro-batch time falls over the first few micro-batches as the JIT warms. */
  val WarmMicroBatches = 2

  /** `spark`: the first 1M events of the ingest stream through the batch
    * pipeline and through the streaming operator in P-event micro-batches.
    */
  def spark(seed: Long, seconds: Double, tracer: Tracer, res: Result, out: Path): Input = {
    val scratch = SparkSide.scratchDir(out, "spark")
    val ((in, spark, df), setup) =
      timedSetup[(Input, SparkSession, DataFrame)](tracer, _._2.stop()) {
        val in = tracer.span("data.generate")(Inputs.ingest(seed, Inputs.SparkEvents))
        val spark = tracer.span("spark.session")(SparkSide.session(scratch))
        (in, spark, tracer.span("spark.events")(SparkSide.events(spark, in.stream)))
      }
    try {
      // Warm-up: batch jobs, then a first micro-batch that fills all but the
      // last sub-window of the first window, then P-event micro-batches.
      // Each P-event micro-batch completes one period and so emits one
      // window result.
      Loop.timed(WarmSeconds, 2)(SparkSide.batch(spark, df, in)._2)
      val stream = new SparkSide.Stream(spark, in, scratch.resolve(s"checkpoint-${System.nanoTime()}"))
      stream.add((in.windowSize - in.period).toInt)
      (1 to WarmMicroBatches).foreach(_ => stream.add(in.period.toInt))

      // Batch jobs and micro-batches alternate, so that both sets of samples
      // span the whole timed phase and slow stretches of the process weigh
      // on both alike.
      val batches = mutable.ArrayBuffer.empty[Map[Long, Array[Double]]]
      val microNs = new Samples
      val (batchNs, overhead) = Loop.job(seconds, 3, tracer, in.evalIds.length - WarmMicroBatches) { t =>
        val (est, ns) = t.span("spark.batch")(SparkSide.batch(spark, df, in))
        batches += est
        microNs.add(t.span("spark.micro_batch")(stream.add(in.period.toInt)).toDouble)
        ns
      }
      res.overheadPct = overhead.map(_ * 100)
      stream.stop()

      if (tracer.enabled) {
        val stage1 = Loop.timed(0, 3)(tracer.span("spark.stage1")(SparkSide.stage1(df, in)))
        val (tasks, bytes) = SparkSide.taskCounts(spark)(SparkSide.batch(spark, df, in))
        SparkSide.layerMetrics(res, stage1, batchNs, tasks, bytes, stream.progress, in.period)
      }

      val ref = reference(in)
      val driverEst = in.evalIds.zip(ref.estimates).toMap
      batches.foreach(b => res.checks.evaluations("spark batch", b, driverEst, Checks.withinBatchTolerance))
      val streamed = in.evalIds.take(WarmMicroBatches + microNs.count)
      res.checks.evaluations("spark streaming", stream.sink, streamed.map(e => e -> driverEst(e)).toMap,
        Checks.bitEqual)
      val last = in.evalIds.map(batches.last.getOrElse(_, Array.fill(in.phis.length)(Double.NaN)))

      res.e2eMedian("setup_s", setup, 1, "s")
      res.e2e("throughput_eps", in.stream.length / (batchNs.median / 1e9), "ev/s", batchNs.count)
      res.e2eMedian("job_s", batchNs, 1e-9, "s")
      res.e2eMedian("result_latency_p50_ms", microNs, 1e-6, "ms")
      res.accuracy(in.phis, Accuracy.valueErrPct(last, ref.exacts.toSeq), ref.observedSpace, ref.evaluations)
      res.layer("harness.truth_passes", 1, "count", 1)
      in
    } finally spark.stop()
  }
}

/** The shape claims the Table 1 and Table 2 benches assert, one check each. */
object TableChecks {
  def apply(c: Checks, rows: Seq[Tables.Table1Row], t2: Map[Long, Array[Double]]): Unit = {
    def row(p: String) = rows.find(_.policy == p).get
    val i999 = Tables.Phis.indexOf(0.999)
    val i99 = Tables.Phis.indexOf(0.99)
    val rankBounded = Seq("QLOVE", "CMQS", "AM", "Random")
    for (p <- rankBounded; q <- Tables.Phis.indices)
      c.check(s"table1 $p rank error at ${Tables.Phis(q)} within epsilon")(
        row(p).rankError(q) <= Tables.Epsilon)
    for (p <- Seq("CMQS", "AM", "Random", "Moment"))
      c.check(s"table1 QLOVE Q0.999 value error below $p")(
        row("QLOVE").valueErrorPct(i999) < row(p).valueErrorPct(i999))
    c.check("table1 QLOVE Q0.999 value error below 8%")(row("QLOVE").valueErrorPct(i999) < 8.0)
    for (p <- Seq("CMQS", "AM", "Random"))
      c.check(s"table1 $p Q0.999 value error above 5%")(row(p).valueErrorPct(i999) > 5.0)
    for (p <- rankBounded; q <- Seq(0, 1))
      c.check(s"table1 $p value error at ${Tables.Phis(q)} below 1%")(row(p).valueErrorPct(q) < 1.0)
    c.check("table1 QLOVE observed space below analytical")(
      row("QLOVE").observedSpace < row("QLOVE").analyticalSpace)
    c.check("table1 QLOVE observed space below Random's")(
      row("QLOVE").observedSpace < row("Random").observedSpace)
    c.check("table1 AM observed space above CMQS's")(row("AM").observedSpace > row("CMQS").observedSpace)

    val periods = Tables.Table2Periods
    for (p <- periods; q <- Seq(0, 1))
      c.check(s"table2 period $p value error at ${Tables.Phis(q)} below 1%")(t2(p)(q) < 1.0)
    c.check("table2 Q0.999 error at 1K above twice 64K's")(t2(1024L)(i999) > 2.0 * t2(65536L)(i999))
    c.check("table2 Q0.999 error at 1K above 5%")(t2(1024L)(i999) > 5.0)
    def trend = periods.map(t2(_)(i999))
    c.check("table2 Q0.999 error ends higher than it starts")(trend.last > trend.head)
    c.check("table2 Q0.999 error at the middle period not below the first")(
      trend(periods.length / 2) >= trend.head)
    for (p <- periods)
      c.check(s"table2 period $p Q0.99 error below Q0.999")(t2(p)(i99) < t2(p)(i999))
  }
}
