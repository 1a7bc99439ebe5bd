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

/** When a sampler's init phase runs (§2.3, Alg. 3): NAIVE and O-REJ have
  * none; ITS, ALIAS and REJ preprocess [[StaticTables]] once for unbiased
  * and static walks, and init on every step for dynamic walks.
  */
object InitPhase extends Enumeration {
  val NoInit, Preprocess, PerStep = Value

  def of(walkerType: WalkerType.Value, method: SamplingMethod.Value): Value = {
    require(method != SamplingMethod.NAIVE || walkerType == WalkerType.Unbiased,
      "NAIVE sampling only supports unbiased random walk (§2.3)")
    if (method == SamplingMethod.NAIVE || method == SamplingMethod.OREJ) NoInit
    else if (walkerType == WalkerType.Dynamic) PerStep else Preprocess
  }
}

/** What a [[StaticTables]] set was built for; names it in error messages. */
final case class TableKey(method: SamplingMethod.Value, walkerType: WalkerType.Value,
                          vertices: Int, edges: Int) {
  override def toString: String = s"$method tables for $walkerType walks on $vertices vertices and $edges edges"
}

/** Per-vertex sampling tables built by the static-RW preprocessing pass
  * (Algorithm 3). Only the arrays needed by the chosen method are
  * populated. The alias table is the paper's (H, A) pair: slot e keeps
  * edge e with probability `aliasProb(e)` and otherwise gives way to the
  * *global edge index* `aliasSecond(e)` (-1 for a full bucket).
  * Conceptually (H[e], A[e]) is one struct occupying one cache line slot,
  * which is how the Move stage machine charges it. `key` says what the
  * tables were built for.
  */
final class StaticTables(
    val key: TableKey,
    val aliasProb: Array[Double],
    val aliasSecond: Array[Int],
    val cdf: Array[Double],
    val rejMax: Array[Float],
) extends Serializable {
  def memoryBytes: Long =
    8L * aliasProb.length + 4L * aliasSecond.length + 8L * cdf.length + 4L * rejMax.length
}

object StaticTables {

  /** The tables a `method` run of `walkerType` walks on `g` reads: null
    * without a preprocessing pass, else tables over the uniform distribution
    * (unbiased RW) or the edge weights (static RW). A non-null `sim` is
    * charged one streaming pass over the edges plus per-method init work
    * (alias normalisation divisions are charged as core stalls).
    */
  def build(g: CSRGraph, walkerType: WalkerType.Value, method: SamplingMethod.Value,
            sim: MemSim = null): StaticTables = {
    if (InitPhase.of(walkerType, method) != InitPhase.Preprocess) return null
    val uniform = walkerType == WalkerType.Unbiased
    val m = g.numEdges
    val cdf = new Array[Double](if (method == SamplingMethod.ITS) m else 0)
    val rejMax = new Array[Float](if (method == SamplingMethod.REJ) g.numVertices else 0)
    val aliasP = new Array[Double](if (method == SamplingMethod.ALIAS) m else 0)
    val aliasB = new Array[Int](aliasP.length)

    // One pass over each vertex's weights; ITS writes its prefix sums as it
    // goes, REJ the maximum and ALIAS the (H, A) pairs after the pass.
    var v = 0
    while (v < g.numVertices) {
      val base = g.edgeBegin(v)
      val d = g.degree(v)
      val probs = new Array[Double](d)
      var sum = 0.0
      var mx = 0.0f
      var i = 0
      while (i < d) {
        if (sim != null) { sim.streamRead(SimLayout.weight(base + i)); sim.compute(2) }
        probs(i) = if (uniform) 1.0 else g.weight(base + i).toDouble
        sum += probs(i)
        if (probs(i).toFloat > mx) mx = probs(i).toFloat
        if (method == SamplingMethod.ITS) {
          cdf(base + i) = sum
          if (sim != null) sim.streamWrite(SimLayout.cdf(base + i))
        }
        i += 1
      }
      if (method == SamplingMethod.REJ) {
        rejMax(v) = mx
        if (sim != null) sim.streamWrite(SimLayout.rejMax(v))
      } else if (method == SamplingMethod.ALIAS && d > 0) {
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
    new StaticTables(TableKey(method, walkerType, g.numVertices, g.numEdges), aliasP, aliasB, cdf, rejMax)
  }

  /** Rejects `t` unless it is what `build(g, walkerType, method)` returns. */
  def requireFits(t: StaticTables, g: CSRGraph, walkerType: WalkerType.Value,
                  method: SamplingMethod.Value): Unit = {
    val want = Option.when(InitPhase.of(walkerType, method) == InitPhase.Preprocess)(
      TableKey(method, walkerType, g.numVertices, g.numEdges))
    val got = Option(t).map(_.key)
    require(got == want, s"$method on $walkerType walks over ${g.name} needs " +
      s"${want.getOrElse("no tables")}, got ${got.getOrElse("no tables")}")
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
