package repro.sampling

import repro.graph.CSRGraph
import repro.memsim.{MemSim, SimLayout}

/** The five sampling methods of §2.3. */
object SamplingMethod extends Enumeration {
  val NAIVE, ITS, ALIAS, REJ, OREJ = Value
}

/** RW-type taxonomy of §2.2: unbiased / biased-static / biased-dynamic. */
object WalkerType extends Enumeration {
  val Unbiased, Static, Dynamic = Value
}

/** Per-vertex sampling tables built by the static-RW preprocessing pass
  * (Algorithm 3). Only the arrays needed by the chosen method are
  * populated. The alias table is the paper's (H, A) pair: slot e keeps
  * edge e with probability `aliasProb(e)` and otherwise gives way to the
  * *global edge index* `aliasSecond(e)` (-1 for a full bucket).
  * Conceptually (H[e], A[e]) is one struct occupying one cache line slot,
  * which is how the Move stage machine charges it.
  */
final class StaticTables(
    val aliasProb: Array[Double],
    val aliasSecond: Array[Int],
    val cdf: Array[Double],
    val rejMax: Array[Float],
) extends Serializable {
  def memoryBytes: Long =
    8L * aliasProb.length + 4L * aliasSecond.length + 8L * cdf.length + 4L * rejMax.length
}

object StaticTables {

  /** Build tables for `method` over either the uniform distribution
    * (unbiased RW) or the edge weights (static RW). If `sim` is non-null
    * the preprocessing cost is charged to it: one streaming pass over the
    * edges plus per-method init work (divisions for alias normalisation
    * are the expensive part, charged as core stalls).
    */
  def build(g: CSRGraph, method: SamplingMethod.Value, uniform: Boolean,
            sim: MemSim = null): StaticTables = {
    val m = g.numEdges
    var aliasP: Array[Double] = Array.emptyDoubleArray
    var aliasB: Array[Int] = Array.emptyIntArray
    var cdf: Array[Double] = Array.emptyDoubleArray
    var rejMax: Array[Float] = Array.emptyFloatArray

    def w(e: Int): Double = if (uniform) 1.0 else g.weight(e).toDouble

    method match {
      case SamplingMethod.NAIVE | SamplingMethod.OREJ =>
        // no initialization phase (§2.3); nothing to build or charge
      case SamplingMethod.ITS =>
        cdf = new Array[Double](m)
        var v = 0
        while (v < g.numVertices) {
          var acc = 0.0
          var e = g.edgeBegin(v)
          val end = g.offsets(v + 1)
          while (e < end) {
            if (sim != null) { sim.streamRead(SimLayout.weight(e)); sim.compute(2) }
            acc += w(e)
            cdf(e) = acc
            if (sim != null) sim.streamWrite(SimLayout.cdf(e))
            e += 1
          }
          v += 1
        }
      case SamplingMethod.REJ =>
        rejMax = new Array[Float](g.numVertices)
        var v = 0
        while (v < g.numVertices) {
          var mx = 0.0f
          var e = g.edgeBegin(v)
          val end = g.offsets(v + 1)
          while (e < end) {
            if (sim != null) { sim.streamRead(SimLayout.weight(e)); sim.compute(2) }
            val we = w(e).toFloat
            if (we > mx) mx = we
            e += 1
          }
          rejMax(v) = mx
          if (sim != null) sim.streamWrite(SimLayout.rejMax(v))
          v += 1
        }
      case SamplingMethod.ALIAS =>
        aliasP = new Array[Double](m)
        aliasB = new Array[Int](m)
        var v = 0
        while (v < g.numVertices) {
          val base = g.edgeBegin(v)
          val d = g.degree(v)
          if (d > 0) {
            val probs = new Array[Double](d)
            var i = 0
            var sum = 0.0
            while (i < d) {
              if (sim != null) { sim.streamRead(SimLayout.weight(base + i)); sim.compute(2) }
              probs(i) = w(base + i); sum += probs(i); i += 1
            }
            val (hp, hs) = buildAlias(probs, sum, sim)
            i = 0
            while (i < d) {
              aliasP(base + i) = hp(i)
              aliasB(base + i) = if (hs(i) < 0) -1 else base + hs(i)
              if (sim != null) sim.streamWrite(SimLayout.aliasPair(base + i))
              i += 1
            }
          }
          v += 1
        }
    }
    new StaticTables(aliasP, aliasB, cdf, rejMax)
  }

  /** Walker's alias-table construction over local probabilities.
    * Returns (H, A) with local indices: bucket i keeps i with probability
    * H(i), else yields A(i); A(i) = -1 for single-element buckets. Charged
    * per edge: normalisation division (core stall) plus queue bookkeeping
    * instructions.
    */
  def buildAlias(probs: Array[Double], sum: Double,
                 sim: MemSim = null): (Array[Double], Array[Int]) = {
    val d = probs.length
    val h = new Array[Double](d)
    val second = Array.fill(d)(-1)
    val scaled = new Array[Double](d)
    var i = 0
    while (i < d) {
      if (sim != null) { sim.compute(6); sim.coreStall(5) } // normalise: divide
      scaled(i) = probs(i) * d / sum
      i += 1
    }
    // FIFO queues of bucket indices. Every index enters `small` at most
    // once, and `large` at most once plus once per pairing (at most d).
    val small = new Array[Int](d)
    val large = new Array[Int](2 * d)
    var sHead = 0; var sTail = 0; var lHead = 0; var lTail = 0
    i = 0
    while (i < d) {
      if (scaled(i) < 1.0) { small(sTail) = i; sTail += 1 } else { large(lTail) = i; lTail += 1 }
      if (sim != null) sim.compute(3)
      i += 1
    }
    while (sHead < sTail && lHead < lTail) {
      val s = small(sHead); sHead += 1
      val l = large(lHead); lHead += 1
      h(s) = scaled(s)
      second(s) = l
      scaled(l) = scaled(l) - (1.0 - scaled(s))
      if (scaled(l) < 1.0) { small(sTail) = l; sTail += 1 } else { large(lTail) = l; lTail += 1 }
      if (sim != null) sim.compute(8)
    }
    while (lHead < lTail) {
      h(large(lHead)) = 1.0; lHead += 1
      if (sim != null) sim.compute(3)
    }
    while (sHead < sTail) {
      h(small(sHead)) = 1.0; sHead += 1
      if (sim != null) sim.compute(3)
    }
    (h, second)
  }

  /** Pure generation-phase reference implementations used by the
    * statistical tests (no cost charging, local distributions).
    */
  object Ref {
    def naive(d: Int, rng: java.util.SplittableRandom): Int = rng.nextInt(d)

    def its(cdf: Array[Double], rng: java.util.SplittableRandom): Int = {
      val total = cdf(cdf.length - 1)
      val r = rng.nextDouble() * total
      var lo = 0; var hi = cdf.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (r < cdf(mid)) hi = mid else lo = mid + 1
      }
      lo
    }

    def alias(h: Array[Double], second: Array[Int], rng: java.util.SplittableRandom): Int = {
      val x = rng.nextInt(h.length)
      val y = rng.nextDouble()
      if (y < h(x) || second(x) < 0) x else second(x)
    }

    def rej(probs: Array[Double], pStar: Double, rng: java.util.SplittableRandom): Int = {
      while (true) {
        val x = rng.nextInt(probs.length)
        val y = rng.nextDouble() * pStar
        if (y < probs(x)) return x
      }
      -1
    }
  }
}
