package repro.core

import java.lang.Double.doubleToRawLongBits

/** Level-1 in-flight sub-window state (paper Algorithm 1): the one kernel
  * behind QLOVE's sub-windows, the CMQS and AM in-flight sub-windows and the
  * Spark sub-window aggregate.
  *
  * The paper keeps a red-black tree `{value -> count}`. This kernel keeps the
  * same multiset in two parts:
  *   - dense counts over 3-digit codes. A positive double `v = m·10^e` with
  *     100 ≤ m ≤ 999, decoded with [[Quantizer.pow10]] in the normal range,
  *     is counted at slot (e, m), so accumulating a quantized value is one
  *     array increment. Slots ascend with their values and no two decode to
  *     the same double. That is why m = 1000 is never a slot: at some
  *     exponents 1000·10^e and 100·10^(e+1) are different doubles, and at some
  *     of those the first is the larger.
  *   - every other double (±0.0, negatives, ±Inf, subnormals, values with
  *     more than three significant digits) in a primitive buffer that is
  *     sorted once, at seal. NaNs are counted apart and keep the first NaN,
  *     as the tree's single NaN key does.
  *
  * The seal merges the two ascending runs into (value, count) arrays: the
  * tree's entries, in `java.lang.Double.compare` order. `computeResult`
  * answers all quantiles in one in-order pass over them, as Algorithm 1 does.
  */
final class FreqSketch extends Serializable {
  import FreqSketch._

  private var counts: Array[Long] = null // counts(s - offset) is code slot s's count
  private var offset = 0
  private var lo = Int.MaxValue // the occupied slots lie in [lo, hi]
  private var hi = Int.MinValue
  private var raw: Array[Double] = null // the other values but NaN, raw(0 until rawN)
  private var rawN = 0
  private var nanCount = 0L
  private var nanValue = Double.NaN
  private var total = 0L
  // The seal: `distinct` ascending values and their counts, current while
  // `sealedTotal == total`.
  private var values: Array[Double] = null
  private var freqs: Array[Long] = null
  private var distinct = 0
  private var sealedTotal = -1L

  /** Accumulate one element (paper `Accumulate`). */
  def accumulate(v: Double): Unit = {
    val s = code(v)
    if (s >= 0) addCode(s)
    else {
      if (v.isNaN) {
        if (nanCount == 0) nanValue = v
        nanCount += 1
      } else addRaw(v)
      total += 1
    }
  }

  /** Accumulate `Quantizer.quantize(v, digits)`, or `v` itself when
    * `digits <= 0`. At three digits the quantizer's own (e, m) is the slot,
    * so a positive value costs one log10 and one array increment. The
    * m = 1000 carry (9995 → 1.00e4) and m = 100 take [[accumulate]], which
    * codes the quantized value itself: whether log10 puts 100·10^e in
    * exponent e depends on its rounding next to 10^(e+2).
    */
  def accumulateQuantized(v: Double, digits: Int): Unit =
    if (digits == 3 && v > 0 && v <= Double.MaxValue) {
      val e = Quantizer.exponent(v, 3)
      val p = Quantizer.pow10(e)
      val m = math.rint(v / p)
      if (m > 100 && m < 1000 && e >= MinE && e <= MaxE) addCode(slot(e, m.toInt))
      else accumulate(m * p)
    } else accumulate(if (digits > 0) Quantizer.quantize(v, digits) else v)

  private def addCode(s: Int): Unit = {
    if (s < lo || s > hi) cover(s)
    counts(s - offset) += 1
    total += 1
  }

  /** Widen the occupied range to `s`, growing the array by a decade of slack
    * on each side when it does not reach.
    */
  private def cover(s: Int): Unit = {
    val from = math.min(lo, s)
    val to = math.max(hi, s)
    if (counts == null || from < offset || to >= offset + counts.length) {
      val start = math.max(0, from - PerDecade)
      val next = new Array[Long](math.min(Slots, to + 1 + PerDecade) - start)
      if (lo <= hi) System.arraycopy(counts, lo - offset, next, lo - start, hi - lo + 1)
      counts = next
      offset = start
    }
    lo = from
    hi = to
  }

  private def addRaw(v: Double): Unit = {
    if (raw == null) raw = new Array[Double](64)
    else if (rawN == raw.length) raw = java.util.Arrays.copyOf(raw, math.max(64, 2 * rawN))
    raw(rawN) = v
    rawN += 1
  }

  /** Add all of `o`'s elements (a partial aggregate's merge): counts add slot
    * by slot and the buffers concatenate.
    */
  def merge(o: FreqSketch): FreqSketch = {
    if (o.lo <= o.hi) {
      cover(o.lo)
      cover(o.hi)
      var s = o.lo
      while (s <= o.hi) { counts(s - offset) += o.counts(s - o.offset); s += 1 }
    }
    var r = 0
    while (r < o.rawN) { addRaw(o.raw(r)); r += 1 }
    if (o.nanCount > 0) {
      if (nanCount == 0) nanValue = o.nanValue
      nanCount += o.nanCount
    }
    total += o.total
    this
  }

  /** Merge the sorted buffer into the ascending slot scan. Slot values are
    * positive and never in the buffer, so primitive `<` orders the two runs.
    * The scan runs on locals so the JIT keeps them in registers.
    */
  private def seal(): Unit = if (sealedTotal != total) {
    val nRaw = rawN
    if (nRaw > 1) java.util.Arrays.sort(raw, 0, nRaw)
    val bound = (if (lo <= hi) math.min(hi - lo + 1L, total).toInt else 0) + nRaw + 1
    if (values == null || values.length < bound) {
      values = new Array[Double](bound)
      freqs = new Array[Long](bound)
    }
    val vs = values
    val fs = freqs
    val cs = counts
    val rs = raw
    val off = offset
    val end = hi
    var d = 0
    var r = 0
    var s = lo
    var e = lo / PerDecade + MinE
    var m = lo % PerDecade + 100
    var p = Quantizer.pow10(e)
    while (s <= end) {
      val c = cs(s - off)
      if (c != 0) {
        val v = m * p
        while (r < nRaw && rs(r) < v) { d = putRaw(vs, fs, d, rs(r)); r += 1 }
        vs(d) = v
        fs(d) = c
        d += 1
      }
      s += 1
      m += 1
      if (m == 1000) { m = 100; e += 1; p = Quantizer.pow10(e) }
    }
    while (r < nRaw) { d = putRaw(vs, fs, d, rs(r)); r += 1 }
    if (nanCount > 0) {
      vs(d) = nanValue
      fs(d) = nanCount
      d += 1
    }
    distinct = d
    sealedTotal = total
  }

  /** Write buffered `v` as entry `d`, or count it in entry d - 1 when equal:
    * equal values (raw bits, so -0.0 and 0.0 stay apart) sort next to each
    * other. Returns the number of entries written.
    */
  private def putRaw(vs: Array[Double], fs: Array[Long], d: Int, v: Double): Int =
    if (d > 0 && doubleToRawLongBits(vs(d - 1)) == doubleToRawLongBits(v)) {
      fs(d - 1) += 1
      d
    } else {
      vs(d) = v
      fs(d) = 1
      d + 1
    }

  /** Number of accumulated elements. */
  def count: Long = total

  /** Number of distinct values currently stored. */
  def uniqueCount: Int = { seal(); distinct }

  /** Observed space in "variables": the paper's tree stores one {value, count}
    * node per distinct value.
    */
  def observedSpace: Long = 2L * uniqueCount

  /** Paper `ComputeResult`: exact φ-quantiles for all `phis` in a single
    * in-order traversal. `phis` need not be sorted; results align with the
    * input order.
    */
  def computeResult(phis: Array[Double]): Array[Double] = {
    seal()
    quantiles(phis, values, freqs, distinct, total)
  }

  /** The values at the non-decreasing 1-based `ranks`, each in [1, count]. */
  def atRanks(ranks: Array[Long]): Array[Double] = {
    seal()
    FreqSketch.atRanks(values, freqs, distinct, ranks)
  }

  /** The `m` largest elements (with multiplicity), descending. Ties are
    * expanded up to their frequency. Used to build few-k pools.
    */
  def topValues(m: Int): Array[Double] = {
    seal()
    val out = new Array[Double](math.max(0L, math.min(m.toLong, total)).toInt)
    var k = 0
    var i = distinct - 1
    while (k < out.length) {
      val end = math.min(out.length.toLong, k + freqs(i)).toInt
      java.util.Arrays.fill(out, k, end, values(i))
      k = end
      i -= 1
    }
    out
  }

  /** All (value, count) pairs in ascending value order. */
  def entries: Array[(Double, Long)] = {
    seal()
    Array.tabulate(distinct)(i => (values(i), freqs(i)))
  }

  /** Reset to the initial state (paper `InitialState`), keeping the arrays. */
  def clear(): Unit = {
    if (lo <= hi) java.util.Arrays.fill(counts, lo - offset, hi - offset + 1, 0L)
    lo = Int.MaxValue
    hi = Int.MinValue
    rawN = 0
    nanCount = 0
    total = 0
    sealedTotal = -1
  }

  /** Java serialization (the streaming state, the Spark aggregate buffer)
    * writes the occupied slots only, never the spare capacity.
    */
  private def writeReplace(): AnyRef = {
    val slots = (lo to hi).filter(s => counts(s - offset) != 0).toArray
    new Packed(slots, slots.map(s => counts(s - offset)),
      if (raw == null) Array.emptyDoubleArray else java.util.Arrays.copyOf(raw, rawN),
      nanCount, nanValue)
  }
}

object FreqSketch {
  // Code exponents: every m·10^e, 100 ≤ m ≤ 999, is a normal finite double.
  private final val MinE = -307
  private final val MaxE = 305
  private final val PerDecade = 900
  private[core] val Slots = (MaxE - MinE + 1) * PerDecade

  private def slot(e: Int, m: Int): Int = (e - MinE) * PerDecade + (m - 100)

  /** The slot of `v`, or -1 when `v` is not a 3-digit code. */
  private[core] def code(v: Double): Int =
    if (!(v > 0 && v <= Double.MaxValue)) -1
    else {
      val e = Quantizer.exponent(v, 3)
      if (e < MinE || e > MaxE) -1
      else {
        val p = Quantizer.pow10(e)
        val m = math.rint(v / p)
        if (m >= 100 && m <= 999 && m * p == v) slot(e, m.toInt) else -1
      }
    }

  private[core] def decode(s: Int): Double =
    (s % PerDecade + 100) * Quantizer.pow10(s / PerDecade + MinE)

  /** The values at the non-decreasing 1-based `ranks` of the multiset of `n`
    * ascending distinct `values` with counts `freqs`: for each rank, the
    * first value whose cumulative count reaches it, in one in-order pass.
    */
  private def atRanks(values: Array[Double], freqs: Array[Long], n: Int,
                      ranks: Array[Long]): Array[Double] = {
    val out = new Array[Double](ranks.length)
    var cum = 0L
    var i = 0
    var j = 0
    while (i < n && j < ranks.length) {
      cum += freqs(i)
      while (j < ranks.length && cum >= ranks(j)) { out(j) = values(i); j += 1 }
      i += 1
    }
    require(j == ranks.length, "traversal ended before all quantiles answered")
    out
  }

  /** Paper `ComputeResult` over such a multiset of `total` elements: the
    * φ-quantiles for all `phis`, in one pass; results align with `phis`.
    */
  def quantiles(phis: Array[Double], values: Array[Double], freqs: Array[Long],
                n: Int, total: Long): Array[Double] = {
    require(total > 0, "computeResult on empty state")
    val order = phis.zipWithIndex.sortBy(_._1).map(_._2)
    val at = atRanks(values, freqs, n, order.map(i => Stat.rankOf(phis(i), total)))
    val out = new Array[Double](phis.length)
    var k = 0
    while (k < order.length) { out(order(k)) = at(k); k += 1 }
    out
  }

  /** The serialized form of a [[FreqSketch]]. */
  private final class Packed(slots: Array[Int], slotCounts: Array[Long], raw: Array[Double],
                             nanCount: Long, nanValue: Double) extends Serializable {
    private def readResolve(): AnyRef = {
      val sk = new FreqSketch
      if (slots.nonEmpty) { sk.cover(slots.head); sk.cover(slots.last) }
      var i = 0
      while (i < slots.length) { sk.counts(slots(i) - sk.offset) = slotCounts(i); i += 1 }
      sk.raw = raw
      sk.rawN = raw.length
      sk.nanCount = nanCount
      sk.nanValue = nanValue
      sk.total = slotCounts.sum + raw.length + nanCount
      sk
    }
  }
}
