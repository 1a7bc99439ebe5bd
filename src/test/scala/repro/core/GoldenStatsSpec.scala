package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.graph.CSRGraph
import repro.memsim.{MemConfig, MemSim, PrefetchHint, SimLayout, SimStats}
import repro.sampling.SamplingMethod

/** Golden simulator statistics: the simulator is deterministic, so a
  * host-side refactor of memsim or the engines must reproduce these
  * counters exactly. Doubles are compared bit for bit.
  */
class GoldenStatsSpec extends SparkSpec with GraphFixtures {

  // Large enough that neighbor/weight/alias/cdf arrays overflow L1 and L2
  // and partly L3, so every miss level and the prefetch evict path run.
  private lazy val g: CSRGraph = tinyGraph(n = 2000, e = 12000, seed = 5L)
  private val cfg = MemConfig()

  private def result(app: RandomWalkApp, m: SamplingMethod.Value, kind: EngineKind.Value,
                     hint: PrefetchHint.Value = PrefetchHint.T0): EngineResult = {
    val (tables, _) = ThunderRW.preprocess(g, app, m, cfg, charge = false)
    val rng = new java.util.SplittableRandom(3L)
    val n = 300
    val sources = Array.fill(n)(rng.nextInt(g.numVertices))
    val walkers = ThunderRW.makeWalkers(0 until n, sources, seed = 99L)
    ThunderRW.runLocal(g, app, m, kind, tables, walkers, cfg, taskRing = 64, hint = hint)
  }

  private def run(app: RandomWalkApp, m: SamplingMethod.Value, kind: EngineKind.Value,
                  hint: PrefetchHint.Value = PrefetchHint.T0): SimStats =
    result(app, m, kind, hint).stats

  private val apps: Seq[(String, () => RandomWalkApp, SamplingMethod.Value)] = Seq(
    ("PPR/NAIVE", () => new Apps.PPR(0.2), SamplingMethod.NAIVE),
    ("DeepWalk/ALIAS", () => new Apps.DeepWalk(20), SamplingMethod.ALIAS),
    ("DeepWalk/ITS", () => new Apps.DeepWalk(20), SamplingMethod.ITS),
    ("DeepWalk/REJ", () => new Apps.DeepWalk(20), SamplingMethod.REJ),
    ("DeepWalk/OREJ", () => new Apps.DeepWalk(20), SamplingMethod.OREJ),
    ("Node2Vec/OREJ", () => new Apps.Node2Vec(2.0, 0.5, 20), SamplingMethod.OREJ),
    ("Node2Vec/ALIAS-dyn", () => new Apps.Node2Vec(2.0, 0.5, 20), SamplingMethod.ALIAS),
    ("MetaPath/ITS-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 20), SamplingMethod.ITS),
  )

  private val cases: Seq[(String, () => SimStats)] =
    (for ((name, mk, m) <- apps; kind <- EngineKind.values.toSeq)
      yield (s"$name/$kind", () => run(mk(), m, kind))) ++
    (for (h <- Seq(PrefetchHint.T1, PrefetchHint.T2, PrefetchHint.NTA))
      yield (s"DeepWalk/ALIAS/Interleaved/$h",
        () => run(new Apps.DeepWalk(20), SamplingMethod.ALIAS, EngineKind.Interleaved, h)))

  private val engineCases: Seq[(String, () => EngineResult)] =
    for ((name, mk, m) <- apps; kind <- EngineKind.values.toSeq)
      yield (s"$name/$kind", () => result(mk(), m, kind))

  /** A seeded mix of every MemSim operation and prefetch hint, with
    * prefetched lines read back after a random delay; uses a small cache
    * so evictions happen at every level.
    */
  private def opMix(): MemSim = {
    val m = new MemSim(MemConfig(l1Bytes = 2048, l2Bytes = 8192, l3Bytes = 65536, mshrs = 6))
    val rng = new java.util.SplittableRandom(17L)
    val pending = new Array[Long](32)
    var stream = SimLayout.OutputBase
    def addr(): Long = rng.nextInt(4) match {
      case 0 => 64L * rng.nextInt(32) + rng.nextInt(64)
      case 1 => SimLayout.NeighborsBase + 4L * rng.nextInt(1 << 14)
      case _ => SimLayout.CdfBase + 8L * rng.nextInt(1 << 20)
    }
    var i = 0
    while (i < 200000) {
      rng.nextInt(10) match {
        case 0 | 1 => m.compute(1 + rng.nextInt(12))
        case 2 => m.read(addr())
        case 3 | 4 =>
          val a = addr(); val h = PrefetchHint(rng.nextInt(4))
          m.prefetch(a, h); pending(rng.nextInt(pending.length)) = a
        case 5 => val j = rng.nextInt(pending.length); m.read(pending(j))
        case 6 => m.readOverlapped(addr(), 1 + rng.nextInt(8))
        case 7 => stream += 4 + rng.nextInt(2) * 60; m.streamRead(stream)
        case 8 => m.streamWrite(addr())
        case _ => m.mispredict(rng.nextDouble())
      }
      i += 1
    }
    m
  }

  // (case, cycles, instructions, computeCycles, memStallCycles, badSpecCycles, dramLines)
  private val golden: Seq[(String, Double, Long, Double, Double, Double, Long)] = Seq(
    ("PPR/NAIVE/Sequential", 229590.0, 33956L, 16978.0, 212612.0, 0.0, 1280L),
    ("PPR/NAIVE/Interleaved", 35296.0, 53546L, 26773.0, 8523.0, 0.0, 2189L),
    ("PPR/NAIVE/Amac", 46811.0, 77054L, 38527.0, 8284.0, 0.0, 2189L),
    ("DeepWalk/ALIAS/Sequential", 797808.0, 192000L, 96000.0, 701808.0, 0.0, 3284L),
    ("DeepWalk/ALIAS/Interleaved", 176157.5, 282000L, 141000.0, 35157.5, 0.0, 8751L),
    ("DeepWalk/ALIAS/Amac", 230146.5, 390000L, 195000.0, 35146.5, 0.0, 8751L),
    ("DeepWalk/ITS/Sequential", 1820834.0, 250515L, 125257.5, 1526804.0, 168772.5, 5145L),
    ("DeepWalk/ITS/Interleaved", 577662.0, 573042L, 286521.0, 122368.5, 168772.5, 10463L),
    ("DeepWalk/ITS/Amac", 671933.0, 762048L, 381024.0, 122136.5, 168772.5, 10463L),
    ("DeepWalk/REJ/Sequential", 1369919.5, 262940L, 131470.0, 1204356.0, 34093.5, 3869L),
    ("DeepWalk/REJ/Interleaved", 370893.5, 466163L, 233081.5, 103718.5, 34093.5, 8953L),
    ("DeepWalk/REJ/Amac", 451819.5, 628657L, 314328.5, 103397.5, 34093.5, 8953L),
    ("DeepWalk/OREJ/Sequential", 1263780.5, 275300L, 137650.0, 1085548.0, 40582.5, 3745L),
    ("DeepWalk/OREJ/Interleaved", 457410.5, 433950L, 216975.0, 199853.0, 40582.5, 8212L),
    ("DeepWalk/OREJ/Amac", 503236.5, 525680L, 262840.0, 199814.0, 40582.5, 8212L),
    ("Node2Vec/OREJ/Sequential", 810750.4000003804, 305616L, 152808.0, 614644.0, 43298.400000006804, 2251L),
    ("Node2Vec/OREJ/Interleaved", 568477.3999999228, 430136L, 215068.0, 310111.0, 43298.40000000687, 9121L),
    ("Node2Vec/OREJ/Amac", 610886.4000000078, 515040L, 257520.0, 310068.0, 43298.40000000687, 9121L),
    ("Node2Vec/ALIAS-dyn/Sequential", 2849968.999993004, 3243016L, 1621508.0, 313732.0, 504008.99999773764, 2263L),
    ("Node2Vec/ALIAS-dyn/Interleaved", 3057732.999989554, 3333016L, 1666508.0, 476496.0, 504008.99999773764, 8099L),
    ("Node2Vec/ALIAS-dyn/Amac", 3111716.9999888083, 3441016L, 1720508.0, 476480.0, 504008.99999773764, 8099L),
    ("MetaPath/ITS-dyn/Sequential", 574296.5, 426401L, 213200.5, 292036.0, 69060.0, 3305L),
    ("MetaPath/ITS-dyn/Interleaved", 695127.0, 548608L, 274304.0, 351763.0, 69060.0, 5364L),
    ("MetaPath/ITS-dyn/Amac", 727880.0, 614226L, 307113.0, 351707.0, 69060.0, 5364L),
    ("DeepWalk/ALIAS/Interleaved/T1", 195137.5, 282000L, 141000.0, 54137.5, 0.0, 8751L),
    ("DeepWalk/ALIAS/Interleaved/T2", 233097.5, 282000L, 141000.0, 92097.5, 0.0, 8751L),
    ("DeepWalk/ALIAS/Interleaved/NTA", 415331.0, 282000L, 141000.0, 274331.0, 0.0, 12381L),
  )

  // (case, computeP, init, gen, other). Sequential pins all four phases bit
  // for bit. The ring schedules pin computeP and init bit for bit, and
  // gen + other to 1e-9 relative: their Move/other split may move, their sum
  // may not.
  private val goldenPhases: Seq[(String, Double, Double, Double, Double)] = Seq(
    ("PPR/NAIVE/Sequential", 0.0, 0.0, 183813.0, 45777.0),
    ("PPR/NAIVE/Interleaved", 0.0, 0.0, 35296.0, 0.0),
    ("PPR/NAIVE/Amac", 0.0, 0.0, 46811.0, 0.0),
    ("DeepWalk/ALIAS/Sequential", 0.0, 0.0, 688756.0, 109052.0),
    ("DeepWalk/ALIAS/Interleaved", 0.0, 0.0, 176157.5, 0.0),
    ("DeepWalk/ALIAS/Amac", 0.0, 0.0, 230146.5, 0.0),
    ("DeepWalk/ITS/Sequential", 0.0, 0.0, 1653250.0, 167584.0),
    ("DeepWalk/ITS/Interleaved", 0.0, 0.0, 577662.0, 0.0),
    ("DeepWalk/ITS/Amac", 0.0, 0.0, 671933.0, 0.0),
    ("DeepWalk/REJ/Sequential", 0.0, 0.0, 1209707.5, 160212.0),
    ("DeepWalk/REJ/Interleaved", 0.0, 0.0, 370893.5, 0.0),
    ("DeepWalk/REJ/Amac", 0.0, 0.0, 451819.5, 0.0),
    ("DeepWalk/OREJ/Sequential", 492372.5, 0.0, 571260.5, 200147.5),
    ("DeepWalk/OREJ/Interleaved", 84856.5, 0.0, 372554.0, 0.0),
    ("DeepWalk/OREJ/Amac", 84856.5, 0.0, 418380.0, 0.0),
    ("Node2Vec/OREJ/Sequential", 226998.40000038032, 0.0, 445110.0, 138642.0),
    ("Node2Vec/OREJ/Interleaved", 310871.3999999229, 0.0, 257605.99999999994, 0.0),
    ("Node2Vec/OREJ/Amac", 310870.4000000079, 0.0, 300015.99999999994, 0.0),
    ("Node2Vec/ALIAS-dyn/Sequential", 1564822.999993004, 1085714.0, 66000.0, 133432.0),
    ("Node2Vec/ALIAS-dyn/Interleaved", 1704682.9999895536, 1085714.0, 267336.00000000023, 0.0),
    ("Node2Vec/ALIAS-dyn/Amac", 1704682.9999888085, 1085713.9999999998, 321320.0, 0.0),
    ("MetaPath/ITS-dyn/Sequential", 340561.5, 34296.0, 105549.5, 93889.5),
    ("MetaPath/ITS-dyn/Interleaved", 347869.5, 34296.0, 312961.5, 0.0),
    ("MetaPath/ITS-dyn/Amac", 347869.5, 34296.0, 345714.5, 0.0),
  )

  private def same(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b)

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  test("golden table lists every case") {
    assert(golden.map(_._1) == cases.map(_._1))
  }

  for (((name, f), (_, cyc, ins, comp, mem, bad, dram)) <- cases.zip(golden)) {
    test(s"golden stats: $name") {
      val s = f()
      assert(same(s.cycles, cyc), s"cycles ${s.cycles} != $cyc")
      assert(s.instructions == ins, s"instructions ${s.instructions} != $ins")
      assert(same(s.computeCycles, comp), s"computeCycles ${s.computeCycles} != $comp")
      assert(same(s.memStallCycles, mem), s"memStallCycles ${s.memStallCycles} != $mem")
      assert(same(s.badSpecCycles, bad), s"badSpecCycles ${s.badSpecCycles} != $bad")
      assert(s.dramLines == dram, s"dramLines ${s.dramLines} != $dram")
    }
  }

  test("golden phase table lists every engine case") {
    assert(goldenPhases.map(_._1) == engineCases.map(_._1))
  }

  for (((name, f), (_, cp, init, gen, other)) <- engineCases.zip(goldenPhases)) {
    test(s"golden phases: $name") {
      val p = f().phases
      assert(same(p.computeP, cp), s"computeP ${p.computeP} != $cp")
      assert(same(p.init, init), s"init ${p.init} != $init")
      if (name.endsWith("/Sequential")) {
        assert(same(p.gen, gen), s"gen ${p.gen} != $gen")
        assert(same(p.other, other), s"other ${p.other} != $other")
      } else assert(close(p.gen + p.other, gen + other), s"gen + other ${p.gen + p.other} != ${gen + other}")
    }
  }

  test("phases sum to the simulated cycles under every engine") {
    for ((name, f) <- engineCases) {
      val r = f()
      assert(close(r.phases.total, r.stats.cycles), s"$name: phases ${r.phases} vs cycles ${r.stats.cycles}")
    }
  }

  test("golden stats: MemSim operation mix, cache and diagnostic counters") {
    val m = opMix()
    assert(same(m.cycles, 5138264.392381644), s"cycles ${m.cycles}")
    assert(m.instructions == 401745L)
    assert(same(m.computeCycles, 200872.5))
    assert(same(m.memStallCycles, 4785933.183204486), s"memStallCycles ${m.memStallCycles}")
    assert(same(m.badSpecCycles, 151458.70917711963))
    assert(m.dramLines == 80683L, s"dramLines ${m.dramLines}")
    assert(Seq(m.l1.hits, m.l1.misses, m.l2.hits, m.l2.misses, m.l3.hits, m.l3.misses) ==
      Seq[Long](32370, 67159, 0, 0, 0, 0))
    assert(m.dbgEvictRefetch == 11835L)
    assert(same(m.dbgResidualStall, 147374.80225211638), s"dbgResidualStall ${m.dbgResidualStall}")
    assert(same(m.dbgDemandStall, 2523596.0), s"dbgDemandStall ${m.dbgDemandStall}")
    assert(same(m.dbgEvictStall, 882316.0), s"dbgEvictStall ${m.dbgEvictStall}")
  }
}
