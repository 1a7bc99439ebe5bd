package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemConfig
import repro.sampling.{SamplingMethod, StaticTables}

/** The paper's central claims, at test scale: step interleaving cuts
  * simulated cycles and the memory-bound pipeline fraction on workloads
  * whose working set exceeds the (scaled) LLC.
  */
class InterleaveSpeedupSpec extends SparkSpec with GraphFixtures {

  private val cfg = MemConfig()

  // A graph comfortably larger than the scaled 512 KB LLC.
  private lazy val big = tinyGraph(n = 40000, e = 300000, seed = 51L)

  private def profile(m: SamplingMethod.Value, kind: EngineKind.Value,
                      n: Int = 600, len: Int = 40) = {
    val app = if (m == SamplingMethod.NAIVE) new Apps.DeepWalkUnbiased(len)
              else new Apps.DeepWalk(len)
    val t = StaticTables.build(big, app.walkerType, m)
    val rng = new java.util.SplittableRandom(6L)
    val src = Array.fill(n)(rng.nextInt(big.numVertices))
    val walkers = ThunderRW.makeWalkers(0 until n, src, seed = 9L)
    ThunderRW.runLocal(big, app, m, kind, t, walkers, cfg, 64)
  }

  for (m <- Seq(SamplingMethod.NAIVE, SamplingMethod.ITS, SamplingMethod.ALIAS,
                SamplingMethod.REJ, SamplingMethod.OREJ)) {
    test(s"step interleaving speeds up $m on an LLC-exceeding graph") {
      val wo = profile(m, EngineKind.Sequential)
      val w = profile(m, EngineKind.Interleaved)
      val speedup = wo.stats.cycles / w.stats.cycles
      assert(speedup > 1.5, s"$m speedup=$speedup")
    }

    test(s"step interleaving reduces memory-bound fraction for $m") {
      val wo = profile(m, EngineKind.Sequential)
      val w = profile(m, EngineKind.Interleaved)
      assert(w.stats.tmam.memory < wo.stats.tmam.memory,
        s"$m wo=${wo.stats.tmam.memory} w=${w.stats.tmam.memory}")
    }
  }

  test("sequential static RW is heavily memory bound (>50%) on the big graph") {
    val wo = profile(SamplingMethod.ALIAS, EngineKind.Sequential)
    assert(wo.stats.tmam.memory > 0.5, s"memory=${wo.stats.tmam.memory}")
  }

  test("interleaved static RW drops below 35% memory bound") {
    val w = profile(SamplingMethod.ALIAS, EngineKind.Interleaved)
    assert(w.stats.tmam.memory < 0.35, s"memory=${w.stats.tmam.memory}")
  }

  test("interleaving raises retiring fraction") {
    val wo = profile(SamplingMethod.ALIAS, EngineKind.Sequential)
    val w = profile(SamplingMethod.ALIAS, EngineKind.Interleaved)
    assert(w.stats.tmam.retiring > wo.stats.tmam.retiring)
  }

  test("interleaving raises DRAM bandwidth utilisation") {
    val wo = profile(SamplingMethod.ALIAS, EngineKind.Sequential)
    val w = profile(SamplingMethod.ALIAS, EngineKind.Interleaved)
    assert(w.stats.bandwidthGBs(1) > wo.stats.bandwidthGBs(1))
  }

  test("AMAC also speeds up over sequential but costs more instructions than w/si") {
    val wo = profile(SamplingMethod.ITS, EngineKind.Sequential)
    val w = profile(SamplingMethod.ITS, EngineKind.Interleaved)
    val am = profile(SamplingMethod.ITS, EngineKind.Amac)
    assert(am.stats.cycles < wo.stats.cycles)
    val perStepW = w.stats.instructions.toDouble / w.steps
    val perStepA = am.stats.instructions.toDouble / am.steps
    assert(perStepA > perStepW, s"amac=$perStepA w/si=$perStepW")
  }

  test("interleaving helps less on a cache-resident graph (am-like)") {
    val small = tinyGraph(n = 800, e = 4000, seed = 61L)
    def run(kind: EngineKind.Value) = {
      val app = new Apps.DeepWalk(40)
      val t = StaticTables.build(small, app.walkerType, SamplingMethod.ALIAS)
      val rng = new java.util.SplittableRandom(6L)
      val src = Array.fill(400)(rng.nextInt(small.numVertices))
      ThunderRW.runLocal(small, app, SamplingMethod.ALIAS, kind,
        t, ThunderRW.makeWalkers(0 until 400, src, 9L), cfg, 64)
    }
    val woSmall = run(EngineKind.Sequential)
    val wSmall = run(EngineKind.Interleaved)
    val speedupSmall = woSmall.stats.cycles / wSmall.stats.cycles
    val woBig = profile(SamplingMethod.ALIAS, EngineKind.Sequential)
    val wBig = profile(SamplingMethod.ALIAS, EngineKind.Interleaved)
    val speedupBig = woBig.stats.cycles / wBig.stats.cycles
    assert(speedupBig > speedupSmall,
      s"big=$speedupBig should exceed small=$speedupSmall")
  }

  test("overhead emulation slows a system down (GW ordering mechanism)") {
    val app = new Apps.PPR(0.2)
    val rng = new java.util.SplittableRandom(6L)
    val src = Array.fill(300)(rng.nextInt(big.numVertices))
    def run(ov: Overhead) =
      ThunderRW.runLocal(big, app, SamplingMethod.NAIVE, EngineKind.Sequential,
        null, ThunderRW.makeWalkers(0 until 300, src, 9L), cfg, 64, overhead = ov)
    val plain = run(Overhead())
    val heavy = run(Overhead(instr = 5000, reads = 4))
    assert(heavy.stats.cycles > 3 * plain.stats.cycles)
  }
}
