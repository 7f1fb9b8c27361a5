package repro.baselines

import java.util.{TreeMap => JTreeMap}
import repro.core.{FreqSketch, SlidingQuantilePolicy}
import scala.collection.mutable.ArrayDeque

/** Exact sliding-window quantiles (paper §5.1, policy (1)).
  *
  * Extends Algorithm 1 with deaccumulation: the window's values live in a
  * frequency red-black tree; on expiry the expired value's node decrements
  * its frequency and is deleted when it reaches zero. A ring buffer preserves
  * arrival order so the oldest element is known at expiry time.
  */
final class ExactSliding(
    val windowSize: Long,
    val phis: Array[Double],
) extends SlidingQuantilePolicy {
  private val tree = new ExactSliding.FreqTree
  private val ring = new ArrayDeque[Double]((windowSize + 1).toInt)

  override def name: String = "Exact"

  override def insert(v: Double): Unit = {
    tree.accumulate(v)
    ring.append(v)
    if (ring.length > windowSize) tree.deaccumulate(ring.removeHead())
  }

  override def evaluate(): Array[Double] = {
    require(tree.count == windowSize, s"window not full: ${tree.count}/$windowSize")
    tree.computeResult(phis)
  }

  /** Exact rank interval of `v` within the current window (the harness's
    * ground truth, [[repro.harness.WindowOracle]], follows the same rules).
    */
  def rankInterval(v: Double): (Long, Long) = tree.rankInterval(v)

  override def observedSpace: Long = tree.observedSpace + ring.length

  override def analyticalSpace: Long = 3L * windowSize // value ring + {value,count} nodes
}

object ExactSliding {

  /** The paper's frequency red-black tree `{value -> count}` with removal
    * (`java.util.TreeMap` *is* a red-black tree). Insertion and removal are
    * O(log u) in the number of unique values u. `computeResult` reads the
    * tree into arrays for [[FreqSketch.quantiles]], Algorithm 1's pass.
    */
  private[baselines] final class FreqTree {
    private val tree = new JTreeMap[Double, Long]()
    private var total = 0L
    private var values = Array.emptyDoubleArray
    private var freqs = Array.emptyLongArray

    def accumulate(v: Double): Unit = {
      tree.merge(v, 1L, (a, b) => a + b)
      total += 1
    }

    /** Remove one occurrence of `v`; the node is deleted when its frequency
      * reaches zero.
      */
    def deaccumulate(v: Double): Unit = {
      require(tree.containsKey(v), s"deaccumulate of absent value $v")
      val f = tree.get(v)
      if (f == 1L) tree.remove(v) else tree.put(v, f - 1)
      total -= 1
    }

    def count: Long = total

    def uniqueCount: Int = tree.size

    /** Each tree node stores {value, count}. */
    def observedSpace: Long = 2L * tree.size

    def computeResult(phis: Array[Double]): Array[Double] = {
      val n = tree.size
      if (values.length < n) {
        values = new Array[Double](n)
        freqs = new Array[Long](n)
      }
      var i = 0
      val it = tree.entrySet().iterator()
      while (it.hasNext) {
        val e = it.next()
        values(i) = e.getKey
        freqs(i) = e.getValue
        i += 1
      }
      FreqSketch.quantiles(phis, values, freqs, n, total)
    }

    /** The rank interval `[minRank, maxRank]` (1-based, inclusive) occupied
      * by `v`, or the rank it *would* occupy if absent (a collapsed
      * interval). Used to measure rank error of an approximate answer.
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
  }
}
