package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemConfig
import repro.sampling.{SamplingMethod, StaticTables}

/** Ring-size behaviour (§5.4 / Figure 10's shape): speedup rises with k,
  * peaks at an interior optimum, and degrades once the in-flight lines
  * overflow the L1 working set.
  */
class RingSizeSpec extends SparkSpec with GraphFixtures {

  private val cfg = MemConfig()
  private lazy val big = tinyGraph(n = 40000, e = 300000, seed = 51L)

  private def cyclesPerStep(ring: Int): Double = {
    val app = new Apps.DeepWalk(40)
    val t = StaticTables.build(big, app.walkerType, SamplingMethod.ALIAS)
    val rng = new java.util.SplittableRandom(6L)
    val src = Array.fill(600)(rng.nextInt(big.numVertices))
    val walkers = ThunderRW.makeWalkers(0 until 600, src, seed = 9L)
    val res = ThunderRW.runLocal(big, app, SamplingMethod.ALIAS, EngineKind.Interleaved,
      t, walkers, cfg, ring)
    res.stats.cycles / res.steps
  }

  test("speedup improves sharply from k=1 to the optimum") {
    val k1 = cyclesPerStep(1)
    val k32 = cyclesPerStep(32)
    assert(k32 < k1 / 3, s"k=1: $k1, k=32: $k32")
  }

  test("a k well past the optimum degrades (L1 working-set overflow)") {
    val k32 = cyclesPerStep(32)
    val k512 = cyclesPerStep(512)
    assert(k512 > k32 * 1.2, s"k=32: $k32, k=512: $k512")
  }

  test("a task ring of fewer than one slot fails early") {
    val app = new Apps.DeepWalk(40)
    for (kind <- Seq(EngineKind.Interleaved, EngineKind.Amac); k <- Seq(0, -4)) {
      val e = intercept[IllegalArgumentException](ThunderRW.runLocal(big, app, SamplingMethod.OREJ,
        kind, null, ThunderRW.makeWalkers(0 until 4, Array.fill(4)(0), 9L), cfg, taskRing = k))
      assert(e.getMessage.contains(s"taskRing must be at least 1, got $k"), s"$kind: ${e.getMessage}")
    }
  }

  test("k=1 interleaving is no better than sequential (prefetch distance too short)") {
    val app = new Apps.DeepWalk(40)
    val t = StaticTables.build(big, app.walkerType, SamplingMethod.ALIAS)
    val rng = new java.util.SplittableRandom(6L)
    val src = Array.fill(600)(rng.nextInt(big.numVertices))
    val seqRes = ThunderRW.runLocal(big, app, SamplingMethod.ALIAS, EngineKind.Sequential,
      t, ThunderRW.makeWalkers(0 until 600, src, 9L), cfg)
    val k1 = cyclesPerStep(1)
    assert(k1 > 0.8 * seqRes.stats.cycles / seqRes.steps)
  }
}
