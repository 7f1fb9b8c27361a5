package repro.core

import java.util.{TreeMap => JTreeMap}
import scala.collection.mutable.ArrayBuffer

/** Level-1 in-flight sub-window state (paper Algorithm 1).
  *
  * A sorted frequency map `{value -> count}` over (optionally quantized)
  * values — the paper uses a red-black tree; `java.util.TreeMap` *is* a
  * red-black tree. Insertion is O(log u) in the number of *unique* values u,
  * and `computeResult` answers all requested quantiles in one in-order
  * traversal, exactly as Algorithm 1 does.
  */
final class FreqSketch extends Serializable {
  private val tree = new JTreeMap[Double, Long]()
  private var total = 0L

  /** Accumulate one element (paper `Accumulate`). */
  def accumulate(v: Double): Unit = {
    tree.merge(v, 1L, (a, b) => a + b)
    total += 1
  }

  /** Remove one occurrence of `v` (used by the Exact baseline's
    * deaccumulation); the node is deleted when its frequency reaches zero.
    */
  def deaccumulate(v: Double): Unit = {
    require(tree.containsKey(v), s"deaccumulate of absent value $v")
    val f = tree.get(v)
    if (f == 1L) tree.remove(v) else tree.put(v, f - 1)
    total -= 1
  }

  /** Number of accumulated elements. */
  def count: Long = total

  /** Number of distinct values currently stored. */
  def uniqueCount: Int = tree.size

  /** Observed space in "variables": each tree node stores {value, count}. */
  def observedSpace: Long = 2L * tree.size

  /** Paper `ComputeResult`: exact φ-quantiles for all `phis` in a single
    * in-order traversal. `phis` need not be sorted; results align with the
    * input order.
    */
  def computeResult(phis: Array[Double]): Array[Double] = {
    require(total > 0, "computeResult on empty state")
    val order = phis.zipWithIndex.sortBy(_._1)
    val result = new Array[Double](phis.length)
    var runningCount = 0L
    var qi = 0
    var rank = Stat.rankOf(order(qi)._1, total)
    val it = tree.entrySet().iterator()
    while (it.hasNext && qi < order.length) {
      val e = it.next()
      runningCount += e.getValue
      while (qi < order.length && runningCount >= rank) {
        result(order(qi)._2) = e.getKey
        qi += 1
        if (qi < order.length) rank = Stat.rankOf(order(qi)._1, total)
      }
    }
    require(qi == order.length, "traversal ended before all quantiles answered")
    result
  }

  /** The rank interval `[minRank, maxRank]` (1-based, inclusive) occupied by
    * `v`, or the rank it *would* occupy if absent (a collapsed interval).
    * Used to measure rank error of an approximate answer.
    */
  def rankInterval(v: Double): (Long, Long) = {
    val below = {
      // sum of counts of keys strictly less than v
      var s = 0L
      val it = tree.headMap(v, false).values().iterator()
      while (it.hasNext) s += it.next()
      s
    }
    val atV = Option(tree.get(v)).map(_.longValue).getOrElse(0L)
    if (atV > 0) (below + 1, below + atV) else (below, below + 1)
  }

  /** The `m` largest elements (with multiplicity), descending. Ties are
    * expanded up to their frequency. Used to build few-k pools.
    */
  def topValues(m: Int): Array[Double] = {
    val out = new Array[Double](math.max(0L, math.min(m.toLong, total)).toInt)
    var k = 0
    val it = tree.descendingMap().entrySet().iterator()
    while (k < out.length) {
      val e = it.next()
      val v: Double = e.getKey
      var f = e.getValue
      while (f > 0 && k < out.length) { out(k) = v; k += 1; f -= 1 }
    }
    out
  }

  /** All (value, count) pairs in ascending value order. */
  def entries: Array[(Double, Long)] = {
    val out = new ArrayBuffer[(Double, Long)](tree.size)
    val it = tree.entrySet().iterator()
    while (it.hasNext) { val e = it.next(); out += ((e.getKey, e.getValue)) }
    out.toArray
  }

  /** Reset to the initial state (paper `InitialState`). */
  def clear(): Unit = { tree.clear(); total = 0 }
}
