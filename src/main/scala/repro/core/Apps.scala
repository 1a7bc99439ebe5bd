package repro.core

import repro.graph.CSRGraph
import repro.memsim.SimLayout
import repro.sampling.WalkerType

/** The four representative RW algorithms of §2.2, expressed as
  * step-centric apps (cf. Listing 1 for Node2Vec).
  */
object Apps {

  final val PprCap = 10000 // longest PPR walk: a cap on pathological RNG streaks

  /** PPR: unbiased, terminates with probability `stopProb` per step
    * (paper: 0.2 → expected length 5), or at [[PprCap]] steps.
    */
  final class PPR(val stopProb: Double = 0.2) extends RandomWalkApp {
    val name = "PPR"
    val walkerType = WalkerType.Unbiased
    def weight(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Double = { ctx.compute(1); 1.0 }
    override def maxWeight(g: CSRGraph): Double = 1.0
    def update(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Boolean = {
      ctx.compute(8) // draw + compare
      w.rng.nextDouble() < stopProb || w.length >= PprCap
    }
  }

  /** DeepWalk: biased-static on the edge weight, fixed target length. */
  final class DeepWalk(val targetLength: Int = 80) extends RandomWalkApp {
    val name = "DeepWalk"
    val walkerType = WalkerType.Static
    def weight(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Double = {
      ctx.read(SimLayout.weight(e)); g.weight(e).toDouble
    }
    override def maxWeight(g: CSRGraph): Double = 5.0 // weights drawn from [1, 5)
    def update(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Boolean = {
      ctx.compute(2); w.length >= targetLength
    }
  }

  /** Unbiased DeepWalk (edge weights ignored) — used when evaluating the
    * NAIVE sampler on the DeepWalk workload (§6.3, "vary sampling").
    */
  final class DeepWalkUnbiased(val targetLength: Int = 80) extends RandomWalkApp {
    val name = "DeepWalk-unbiased"
    val walkerType = WalkerType.Unbiased
    def weight(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Double = { ctx.compute(1); 1.0 }
    override def maxWeight(g: CSRGraph): Double = 1.0
    def update(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Boolean = {
      ctx.compute(2); w.length >= targetLength
    }
  }

  /** Node2Vec (Eq. 1): dynamic second-order walk; the distance check is a
    * binary search over the previous vertex's sorted adjacency — genuine
    * user-space random access, charged probe by probe.
    */
  final class Node2Vec(val a: Double = 2.0, val b: Double = 0.5,
                       val targetLength: Int = 80) extends RandomWalkApp {
    val name = "Node2Vec"
    val walkerType = WalkerType.Dynamic
    private val maxW = math.max(1.0, math.max(1.0 / a, 1.0 / b))

    def weight(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Double = {
      ctx.compute(3)
      if (w.length == 0) return maxW
      val dst = g.neighbor(e)
      if (dst == w.prev) return 1.0 / a
      // IsNeighbor(dst, prev): binary search in N_prev
      if (g.isNeighbor(w.prev, dst, ctx.neighborProbe)) 1.0 else 1.0 / b
    }

    override def maxWeight(g: CSRGraph): Double = maxW

    def update(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Boolean = {
      ctx.compute(2); w.length >= targetLength
    }
  }

  /** MetaPath: dynamic label-filtered walk over a cyclic schema. Weight is
    * the 0/1 label match (so transition mass can be zero — the KnightKing
    * limitation discussed in §2.4); dead ends terminate the walker.
    */
  final class MetaPath(val schema: Array[Int], val targetLength: Int = 80) extends RandomWalkApp {
    require(schema.nonEmpty)
    val name = "MetaPath"
    val walkerType = WalkerType.Dynamic
    def weight(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Double = {
      ctx.read(SimLayout.label(e))
      ctx.compute(2)
      if (g.label(e) == schema(w.length % schema.length)) 1.0 else 0.0
    }
    def update(ctx: SimCtx, g: CSRGraph, w: Walker, e: Int): Boolean = {
      ctx.compute(2); w.length >= targetLength
    }
  }

  /** The paper's MetaPath setup: a schema of 5 labels chosen at random
    * from the graph's label set (deterministic: the draw is seeded with 7).
    */
  def metaPathFor(nLabels: Int, len: Int = 5, targetLength: Int = 80): MetaPath = {
    val rng = new java.util.SplittableRandom(7L)
    new MetaPath(Array.fill(len)(rng.nextInt(nLabels)), targetLength)
  }
}
