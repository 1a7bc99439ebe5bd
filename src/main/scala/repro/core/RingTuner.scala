package repro.core

import repro.graph.CSRGraph
import repro.memsim.MemConfig
import repro.sampling.{SamplingMethod, StaticTables}

/** Ring-size auto-tuning (§5.4): pre-execute short static walks, sweep the
  * task-ring size k over powers of two to pick k* for the cycle-free
  * samplers (NAIVE, ALIAS), then sweep k' <= k* for the samplers with
  * cycle stages (ITS, REJ, O-REJ).
  */
object RingTuner {

  final case class Tuning(
      kNaive: Int, kAlias: Int, kIts: Int, kRej: Int, kOrej: Int,
      simulatedSeconds: Double, wallSeconds: Double,
  )

  private def tuneRun(g: CSRGraph, app: RandomWalkApp, m: SamplingMethod.Value,
                      tables: StaticTables, k: Int, n: Int, cfg: MemConfig): Double = {
    val sources = Array.tabulate(n)(i => ((i.toLong * 2654435761L) % g.numVertices).toInt)
    val walkers = ThunderRW.makeWalkers(0 until n, sources, seed = 99L)
    ThunderRW.runLocal(g, app, m, EngineKind.Interleaved, tables, walkers, cfg, taskRing = k)
      .stats.seconds
  }

  def tune(g: CSRGraph, cfg: MemConfig = MemConfig(), maxK: Int = 1024): Tuning = {
    val wall0 = System.nanoTime()
    val n = math.max(500, math.min(g.numVertices, g.numVertices / 10 + 500))
    val static = new Apps.DeepWalk(targetLength = 10)
    val unbiased = new Apps.DeepWalkUnbiased(targetLength = 10)
    var simSeconds = 0.0

    val aliasT = StaticTables.build(g, SamplingMethod.ALIAS, uniform = false)
    val itsT = StaticTables.build(g, SamplingMethod.ITS, uniform = false)
    val rejT = StaticTables.build(g, SamplingMethod.REJ, uniform = false)

    def sweep(app: RandomWalkApp, m: SamplingMethod.Value, t: StaticTables,
              upTo: Int): Int = {
      var best = 1
      var bestSec = Double.MaxValue
      var k = 1
      while (k <= upTo) {
        val s = tuneRun(g, app, m, t, k, n, cfg)
        simSeconds += s
        if (s < bestSec) { bestSec = s; best = k }
        k *= 2
      }
      best
    }

    val kNaive = sweep(unbiased, SamplingMethod.NAIVE, null, maxK)
    val kAlias = sweep(static, SamplingMethod.ALIAS, aliasT, maxK)
    val kStar = math.max(kNaive, kAlias)
    val kIts = sweep(static, SamplingMethod.ITS, itsT, kStar)
    val kRej = sweep(static, SamplingMethod.REJ, rejT, kStar)
    val kOrej = sweep(static, SamplingMethod.OREJ, null, kStar)

    Tuning(kNaive, kAlias, kIts, kRej, kOrej, simSeconds,
      (System.nanoTime() - wall0) / 1e9)
  }
}
