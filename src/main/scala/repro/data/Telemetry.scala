package repro.data

import repro.core.Stat
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.{Await, Future, duration}

/** Synthetic telemetry streams standing in for the paper's datasets (§5.1,
  * §5.2, §5.4). All generators are deterministic in (n, seed): i.i.d.
  * datasets are addressable by element index (`Stat.uniform(seed, i)` →
  * inverse CDF), so the same stream can be produced on the driver and inside
  * Spark with identical values. See DESIGN.md §4 for the substitutions.
  */
object Telemetry {

  /** NetMon — datacenter RTTs in integer microseconds. Lognormal body
    * (Q0.5 ≈ 798 us, Q0.9 ≈ 1.25 ms, Q0.99 ≈ 1.8 ms per the paper's reported
    * values) spliced at u = 0.995 into a Pareto(α = 1.2) tail capped at
    * 80 000 us (paper max 74 265 us). Integer rounding keeps the high
    * duplicate density the paper exploits.
    */
  def netmonAt(seed: Long, i: Long): Double = {
    val u = Stat.uniform(seed, i)
    val mu = math.log(798.0)
    val sigma = 0.35
    val splice = 0.995
    val v =
      if (u <= splice) math.exp(mu + sigma * Stat.inverseNormalCdf(u))
      else {
        val xm = math.exp(mu + sigma * Stat.inverseNormalCdf(splice))
        val alphaT = 1.2
        math.min(80000.0, xm * math.pow((1.0 - splice) / (1.0 - u), 1.0 / alphaT))
      }
    math.rint(v)
  }

  /** Search — ISN query response times in integer microseconds: lognormal
    * capped at the 200 ms SLA, so SLA-killed queries pile density into the
    * tail (paper footnote 1 — tail quantiles are easy here).
    */
  def searchAt(seed: Long, i: Long): Double = {
    val u = Stat.uniform(seed, i)
    val v = math.exp(math.log(20000.0) + 0.8 * Stat.inverseNormalCdf(u))
    math.rint(math.min(200000.0, v))
  }

  /** Pareto — integers from Pareto(x_m = 10, α = 1): Q0.5 = 20,
    * Q0.999 = 10 000, capped at the paper's reported max 1.1e9 (§5.4).
    */
  def paretoAt(seed: Long, i: Long): Double = {
    val u = Stat.uniform(seed, i)
    math.rint(math.min(1.1e9, 10.0 / (1.0 - u)))
  }

  /** Normal(mean 1e6, sd 5e4) — the §5.2 scalability / §5.4 marginal. */
  def normalAt(seed: Long, i: Long): Double =
    1e6 + 5e4 * Stat.inverseNormalCdf(Stat.uniform(seed, i))

  /** Uniform on [90, 110] (§5.2 scalability dataset). */
  def uniformAt(seed: Long, i: Long): Double =
    90.0 + 20.0 * Stat.uniform(seed, i)

  def netmon(n: Long, seed: Long = 7L): Iterator[Double] =
    Iterator.range(0L, n).map(netmonAt(seed, _))

  /** `netmon(n, seed).toArray`, filled in chunks on the global pool. */
  def netmonArray(n: Long, seed: Long = 7L): Array[Double] = {
    val out = new Array[Double](n.toInt)
    val fills = (0 until out.length by (1 << 16)).map { from =>
      Future((from until math.min(out.length, from + (1 << 16))).foreach(i => out(i) = netmonAt(seed, i)))
    }
    Await.result(Future.sequence(fills), duration.Duration.Inf)
    out
  }

  def search(n: Long, seed: Long = 8L): Iterator[Double] =
    Iterator.range(0L, n).map(searchAt(seed, _))

  def pareto(n: Long, seed: Long = 9L): Iterator[Double] =
    Iterator.range(0L, n).map(paretoAt(seed, _))

  def normal(n: Long, seed: Long = 10L): Iterator[Double] =
    Iterator.range(0L, n).map(normalAt(seed, _))

  def uniform(n: Long, seed: Long = 11L): Iterator[Double] =
    Iterator.range(0L, n).map(uniformAt(seed, _))

  /** AR(1) stream with correlation ψ and stationary marginal N(mean, sd²)
    * (§5.4 non-i.i.d. study): x_t = ψ·x_{t-1} + √(1-ψ²)·ε_t in standardized
    * space, so every marginal matches the ψ = 0 normal dataset.
    */
  def ar1(n: Long, psi: Double, mean: Double = 1e6, sd: Double = 5e4,
          seed: Long = 12L): Array[Double] = {
    require(psi >= 0.0 && psi < 1.0, s"psi must be in [0,1), got $psi")
    val out = new Array[Double](n.toInt)
    var z = Stat.inverseNormalCdf(Stat.uniform(seed, -1L))
    val c = math.sqrt(1.0 - psi * psi)
    var i = 0L
    while (i < n) {
      val eps = Stat.inverseNormalCdf(Stat.uniform(seed, i))
      z = psi * z + c * eps
      out(i.toInt) = mean + sd * z
      i += 1
    }
    out
  }

  /** Burst injection for Table 4: within every (N/P)-th sub-window of size
    * `period`, multiply the sub-window's top ⌈N(1-φ)⌉ values by 10 — the
    * paper's §5.3 "bursty traffic" workload (one burst per window
    * evaluation, affecting Qφ and above).
    */
  def injectBurst(data: Array[Double], windowSize: Long, period: Long,
                  phi: Double, factor: Double = 10.0): Array[Double] = {
    require(windowSize % period == 0, "window must be a multiple of period")
    val nSub = (windowSize / period).toInt
    val topCount = math.max(1, math.ceil(windowSize * (1.0 - phi) - 1e-9).toInt)
    val out = data.clone()
    var subStart = 0L
    var subIdx = 0L
    while (subStart < out.length) {
      if (subIdx % nSub == 0) {
        val end = math.min(out.length.toLong, subStart + period).toInt
        val start = subStart.toInt
        val idx = (start until end).sortBy(i => -out(i)).take(topCount)
        idx.foreach(i => out(i) = out(i) * factor)
      }
      subStart += period
      subIdx += 1
    }
    out
  }
}
