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
                     hint: PrefetchHint.Value = PrefetchHint.T0,
                     n: Int = 300, ring: Int = 64): EngineResult = {
    val tables = repro.sampling.StaticTables.build(g, app.walkerType, m)
    val rng = new java.util.SplittableRandom(3L)
    val sources = Array.fill(n)(rng.nextInt(g.numVertices))
    val walkers = ThunderRW.makeWalkers(0 until n, sources, seed = 99L)
    ThunderRW.runLocal(g, app, m, kind, tables, walkers, cfg, taskRing = ring, hint = hint)
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
    ("MetaPath/REJ-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 20), SamplingMethod.REJ),
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
    ("MetaPath/REJ-dyn/Sequential", 771059.5, 675289L, 337644.5, 293744.0, 139671.0, 3296L),
    ("MetaPath/REJ-dyn/Interleaved", 984784.0, 856685L, 428342.5, 416770.5, 139671.0, 4827L),
    ("MetaPath/REJ-dyn/Amac", 1024226.0, 935637L, 467818.5, 416736.5, 139671.0, 4827L),
    ("DeepWalk/ALIAS/Interleaved/T1", 195137.5, 282000L, 141000.0, 54137.5, 0.0, 8751L),
    ("DeepWalk/ALIAS/Interleaved/T2", 233097.5, 282000L, 141000.0, 92097.5, 0.0, 8751L),
    ("DeepWalk/ALIAS/Interleaved/NTA", 415331.0, 282000L, 141000.0, 274331.0, 0.0, 12381L),
  )

  // (case, computeP, init, gen, other), bit for bit under every schedule.
  private val goldenPhases: Seq[(String, Double, Double, Double, Double)] = Seq(
    ("PPR/NAIVE/Sequential", 0.0, 0.0, 183813.0, 45777.0),
    ("PPR/NAIVE/Interleaved", 0.0, 0.0, 12574.5, 22721.5),
    ("PPR/NAIVE/Amac", 0.0, 0.0, 12423.0, 34388.0),
    ("DeepWalk/ALIAS/Sequential", 0.0, 0.0, 688756.0, 109052.0),
    ("DeepWalk/ALIAS/Interleaved", 0.0, 0.0, 88184.0, 87973.5),
    ("DeepWalk/ALIAS/Amac", 0.0, 0.0, 88184.0, 141962.5),
    ("DeepWalk/ITS/Sequential", 0.0, 0.0, 1653250.0, 167584.0),
    ("DeepWalk/ITS/Interleaved", 0.0, 0.0, 381393.0, 196269.0),
    ("DeepWalk/ITS/Amac", 0.0, 0.0, 381378.5, 290554.5),
    ("DeepWalk/REJ/Sequential", 0.0, 0.0, 1209707.5, 160212.0),
    ("DeepWalk/REJ/Interleaved", 0.0, 0.0, 223758.0, 147135.5),
    ("DeepWalk/REJ/Amac", 0.0, 0.0, 223632.0, 228187.5),
    ("DeepWalk/OREJ/Sequential", 492372.5, 0.0, 571260.5, 200147.5),
    ("DeepWalk/OREJ/Interleaved", 84856.5, 0.0, 173457.5, 199096.5),
    ("DeepWalk/OREJ/Amac", 84856.5, 0.0, 173453.5, 244926.5),
    ("Node2Vec/OREJ/Sequential", 226998.40000038032, 0.0, 445110.0, 138642.0),
    ("Node2Vec/OREJ/Interleaved", 310871.3999999229, 0.0, 114736.99999999994, 142869.0),
    ("Node2Vec/OREJ/Amac", 310870.4000000079, 0.0, 114736.0, 185279.99999999994),
    ("Node2Vec/ALIAS-dyn/Sequential", 1564822.999993004, 1085714.0, 66000.0, 133432.0),
    ("Node2Vec/ALIAS-dyn/Interleaved", 1704682.9999895536, 1085714.0, 138328.0, 129008.00000000023),
    ("Node2Vec/ALIAS-dyn/Amac", 1704682.9999888085, 1085713.9999999998, 138328.0, 182992.0),
    ("MetaPath/ITS-dyn/Sequential", 340561.5, 34296.0, 105549.5, 93889.5),
    ("MetaPath/ITS-dyn/Interleaved", 347869.5, 34296.0, 225594.0, 87367.5),
    ("MetaPath/ITS-dyn/Amac", 347869.5, 34296.0, 225594.0, 120120.5),
    ("MetaPath/REJ-dyn/Sequential", 344255.5, 34623.0, 298542.0, 93639.0),
    ("MetaPath/REJ-dyn/Interleaved", 350531.5, 34623.0, 486898.5, 112731.0),
    ("MetaPath/REJ-dyn/Amac", 350531.5, 34623.0, 486895.0, 152176.5),
  )

  // The slot loop's edges under every schedule: no walker, one walker, and
  // 300 walkers on a ring of one slot. DeepWalk/OREJ runs the Weight UDF
  // inside Move; MetaPath/REJ-dyn gathers, inits and dead-ends.
  private val edges: Seq[(String, Int, Int)] = Seq(("n=0", 0, 64), ("n=1", 1, 64), ("ring=1", 300, 1))
  private val edgeApps = apps.filter(a => a._1 == "DeepWalk/OREJ" || a._1 == "MetaPath/REJ-dyn")

  private val edgeCases: Seq[(String, () => EngineResult)] =
    for ((name, mk, m) <- edgeApps; (edge, n, ring) <- edges; kind <- EngineKind.values.toSeq)
      yield (s"$name/$edge/$kind", () => result(mk(), m, kind, n = n, ring = ring))

  // (case, cycles, instructions, computeCycles, memStallCycles, badSpecCycles, dramLines,
  //  computeP, init, gen, other)
  private val goldenEdges
      : Seq[(String, Double, Long, Double, Double, Double, Long, Double, Double, Double, Double)] = Seq(
    ("DeepWalk/OREJ/n=0/Sequential", 0.0, 0L, 0.0, 0.0, 0.0, 0L, 0.0, 0.0, 0.0, 0.0),
    ("DeepWalk/OREJ/n=0/Interleaved", 0.0, 0L, 0.0, 0.0, 0.0, 0L, 0.0, 0.0, 0.0, 0.0),
    ("DeepWalk/OREJ/n=0/Amac", 0.0, 0L, 0.0, 0.0, 0.0, 0L, 0.0, 0.0, 0.0, 0.0),
    ("DeepWalk/OREJ/n=1/Sequential", 12299.0, 1020L, 510.0, 11600.0, 189.0, 60L, 4019.0, 0.0, 4323.0, 3957.0),
    ("DeepWalk/OREJ/n=1/Interleaved", 8041.0, 1600L, 800.0, 7052.0, 189.0, 60L, 19.0, 0.0, 4261.0, 3761.0),
    ("DeepWalk/OREJ/n=1/Amac", 8131.0, 1916L, 958.0, 6984.0, 189.0, 60L, 19.0, 0.0, 4241.0, 3871.0),
    ("DeepWalk/OREJ/ring=1/Sequential", 1263780.5, 275300L, 137650.0, 1085548.0, 40582.5, 3745L, 492372.5, 0.0, 571260.5, 200147.5),
    ("DeepWalk/OREJ/ring=1/Interleaved", 809072.5, 433950L, 216975.0, 551515.0, 40582.5, 3745L, 4964.5, 0.0, 550190.5, 253917.5),
    ("DeepWalk/OREJ/ring=1/Amac", 836996.5, 525680L, 262840.0, 533574.0, 40582.5, 3745L, 4964.5, 0.0, 544003.5, 288028.5),
    ("MetaPath/REJ-dyn/n=0/Sequential", 0.0, 0L, 0.0, 0.0, 0.0, 0L, 0.0, 0.0, 0.0, 0.0),
    ("MetaPath/REJ-dyn/n=0/Interleaved", 0.0, 0L, 0.0, 0.0, 0.0, 0L, 0.0, 0.0, 0.0, 0.0),
    ("MetaPath/REJ-dyn/n=0/Amac", 0.0, 0L, 0.0, 0.0, 0.0, 0L, 0.0, 0.0, 0.0, 0.0),
    ("MetaPath/REJ-dyn/n=1/Sequential", 4333.5, 1981L, 990.5, 3112.0, 231.0, 53L, 1391.5, 129.0, 556.0, 2257.0),
    ("MetaPath/REJ-dyn/n=1/Interleaved", 4524.5, 2429L, 1214.5, 3079.0, 231.0, 53L, 1391.5, 129.0, 577.0, 2427.0),
    ("MetaPath/REJ-dyn/n=1/Amac", 4619.5, 2685L, 1342.5, 3046.0, 231.0, 53L, 1391.5, 129.0, 577.0, 2522.0),
    ("MetaPath/REJ-dyn/ring=1/Sequential", 771059.5, 675289L, 337644.5, 293744.0, 139671.0, 3296L, 344255.5, 34623.0, 298542.0, 93639.0),
    ("MetaPath/REJ-dyn/ring=1/Interleaved", 852696.5, 856685L, 428342.5, 284683.0, 139671.0, 3296L, 344255.5, 34623.0, 307655.0, 166163.0),
    ("MetaPath/REJ-dyn/ring=1/Amac", 885659.5, 935637L, 467818.5, 278170.0, 139671.0, 3296L, 344255.5, 34623.0, 307655.0, 199126.0),
  )

  private def same(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b)

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  test("golden table lists every case") {
    assert(golden.map(_._1) == cases.map(_._1))
  }

  private def assertStats(s: SimStats, cyc: Double, ins: Long, comp: Double, mem: Double,
                          bad: Double, dram: Long): Unit = {
    assert(same(s.cycles, cyc), s"cycles ${s.cycles} != $cyc")
    assert(s.instructions == ins, s"instructions ${s.instructions} != $ins")
    assert(same(s.computeCycles, comp), s"computeCycles ${s.computeCycles} != $comp")
    assert(same(s.memStallCycles, mem), s"memStallCycles ${s.memStallCycles} != $mem")
    assert(same(s.badSpecCycles, bad), s"badSpecCycles ${s.badSpecCycles} != $bad")
    assert(s.dramLines == dram, s"dramLines ${s.dramLines} != $dram")
  }

  private def assertPhases(p: PhaseBreakdown, cp: Double, init: Double, gen: Double, other: Double): Unit = {
    assert(same(p.computeP, cp), s"computeP ${p.computeP} != $cp")
    assert(same(p.init, init), s"init ${p.init} != $init")
    assert(same(p.gen, gen), s"gen ${p.gen} != $gen")
    assert(same(p.other, other), s"other ${p.other} != $other")
  }

  for (((name, f), (_, cyc, ins, comp, mem, bad, dram)) <- cases.zip(golden)) {
    test(s"golden stats: $name") {
      assertStats(f(), cyc, ins, comp, mem, bad, dram)
    }
  }

  test("golden phase table lists every engine case") {
    assert(goldenPhases.map(_._1) == engineCases.map(_._1))
  }

  for (((name, f), (_, cp, init, gen, other)) <- engineCases.zip(goldenPhases)) {
    test(s"golden phases: $name") {
      assertPhases(f().phases, cp, init, gen, other)
    }
  }

  test("golden edge table lists every edge case") {
    assert(goldenEdges.map(_._1) == edgeCases.map(_._1))
  }

  for (((name, f), (_, cyc, ins, comp, mem, bad, dram, cp, init, gen, other)) <- edgeCases.zip(goldenEdges)) {
    test(s"golden edge: $name") {
      val r = f()
      assertStats(r.stats, cyc, ins, comp, mem, bad, dram)
      assertPhases(r.phases, cp, init, gen, other)
    }
  }

  for ((name, mk, m) <- edgeApps; (edge, n, ring) <- edges) {
    test(s"edge walks agree across schedules: $name/$edge") {
      val walks = EngineKind.values.toSeq.map(k => result(mk(), m, k, n = n, ring = ring).walks.map(_.toSeq).toSeq)
      assert(walks.forall(_.length == n))
      assert(walks.forall(_ == walks.head))
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
