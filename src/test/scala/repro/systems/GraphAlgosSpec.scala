package repro.systems

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.{MemConfig, MemSim}

class GraphAlgosSpec extends SparkSpec with GraphFixtures {

  private val cfg = MemConfig()

  test("BFS visits exactly the reachable set") {
    val g = explicitGraph(7,
      Seq((0, 1, 1f, 0), (1, 2, 1f, 0), (2, 3, 1f, 0), (4, 5, 1f, 0)), undirect = false)
    val sim = new MemSim(cfg)
    val (_, visited) = GraphAlgos.bfs(g, sim, 0)
    assert(visited == 4) // 0,1,2,3; 4,5,6 unreachable
  }

  test("BFS level count equals graph eccentricity from the source") {
    val g = explicitGraph(5,
      Seq((0, 1, 1f, 0), (1, 2, 1f, 0), (2, 3, 1f, 0), (3, 4, 1f, 0)), undirect = false)
    val sim = new MemSim(cfg)
    val (levels, visited) = GraphAlgos.bfs(g, sim, 0)
    assert(visited == 5 && levels == 4)
  }

  test("BFS on an undirected tiny graph visits the whole component of the hub") {
    val g = tinyGraph(n = 100, e = 800, seed = 81L)
    val hub = (0 until g.numVertices).maxBy(g.degree)
    val sim = new MemSim(cfg)
    val (_, visited) = GraphAlgos.bfs(g, sim, hub)
    // reference reachability
    val seen = Array.fill(g.numVertices)(false)
    var stack = List(hub); seen(hub) = true; var cnt = 1
    while (stack.nonEmpty) {
      val u = stack.head; stack = stack.tail
      (g.edgeBegin(u) until g.offsets(u + 1)).foreach { e =>
        val v = g.neighbor(e)
        if (!seen(v)) { seen(v) = true; cnt += 1; stack = v :: stack }
      }
    }
    assert(visited == cnt)
  }

  test("SSSP distances match Dijkstra reference") {
    val g = tinyGraph(n = 60, e = 400, seed = 91L)
    val src = (0 until g.numVertices).maxBy(g.degree)
    val sim = new MemSim(cfg)
    val dist = GraphAlgos.sssp(g, sim, src, maxRounds = 1000)
    // reference Dijkstra
    val ref = Array.fill(g.numVertices)(Float.MaxValue)
    ref(src) = 0f
    val pq = scala.collection.mutable.PriorityQueue.empty[(Float, Int)](Ordering.by(-_._1))
    pq.enqueue((0f, src))
    val doneV = Array.fill(g.numVertices)(false)
    while (pq.nonEmpty) {
      val (du, u) = pq.dequeue()
      if (!doneV(u)) {
        doneV(u) = true
        (g.edgeBegin(u) until g.offsets(u + 1)).foreach { e =>
          val v = g.neighbor(e); val w = g.weight(e)
          if (du + w < ref(v)) { ref(v) = du + w; pq.enqueue((ref(v), v)) }
        }
      }
    }
    (0 until g.numVertices).foreach { v =>
      if (ref(v) == Float.MaxValue) assert(dist(v) == Float.MaxValue)
      else assert(math.abs(dist(v) - ref(v)) < 1e-3, s"v=$v ${dist(v)} vs ${ref(v)}")
    }
  }

  test("BFS/SSSP charge the simulator (nonzero cycles, DRAM traffic on big graphs)") {
    val g = tinyGraph(n = 30000, e = 200000, seed = 101L)
    val hub = (0 until g.numVertices).maxBy(g.degree)
    val b = GraphAlgos.bfsStats(g, hub, cfg)
    val s = GraphAlgos.ssspStats(g, hub, cfg)
    assert(b.cycles > 0 && s.cycles > 0)
    assert(b.dramLines > 0 && s.dramLines > 0)
  }

  test("BFS is less memory bound than sequential random walk on the same graph") {
    import repro.core._
    import repro.sampling.{SamplingMethod, StaticTables}
    val g = tinyGraph(n = 30000, e = 200000, seed = 101L)
    val hub = (0 until g.numVertices).maxBy(g.degree)
    val bfsT = GraphAlgos.bfsStats(g, hub, cfg).tmam
    val app = new Apps.DeepWalk(40)
    val t = StaticTables.build(g, app.walkerType, SamplingMethod.ALIAS)
    val rng = new java.util.SplittableRandom(5L)
    val src = Array.fill(500)(rng.nextInt(g.numVertices))
    val res = ThunderRW.runLocal(g, app, SamplingMethod.ALIAS, EngineKind.Sequential,
      t, ThunderRW.makeWalkers(0 until 500, src, 9L), cfg)
    assert(res.stats.tmam.memory > bfsT.memory,
      s"walk=${res.stats.tmam.memory} bfs=${bfsT.memory}")
  }

  test("BFS achieves higher bandwidth than sequential random walk") {
    import repro.core._
    import repro.sampling.{SamplingMethod, StaticTables}
    val g = tinyGraph(n = 30000, e = 200000, seed = 101L)
    val hub = (0 until g.numVertices).maxBy(g.degree)
    val bfsS = GraphAlgos.bfsStats(g, hub, cfg)
    val app = new Apps.DeepWalk(40)
    val t = StaticTables.build(g, app.walkerType, SamplingMethod.ALIAS)
    val rng = new java.util.SplittableRandom(5L)
    val src = Array.fill(500)(rng.nextInt(g.numVertices))
    val res = ThunderRW.runLocal(g, app, SamplingMethod.ALIAS, EngineKind.Sequential,
      t, ThunderRW.makeWalkers(0 until 500, src, 9L), cfg)
    assert(bfsS.bandwidthGBs(1) > res.stats.bandwidthGBs(1))
  }
}

class SystemsSpec extends org.scalatest.funsuite.AnyFunSuite {
  import repro.systems.Systems._

  test("support matrix matches the paper: GW only PPR; KK no MetaPath") {
    assert(GW.supports("PPR") && !GW.supports("DeepWalk") && !GW.supports("Node2Vec"))
    assert(KK.supports("Node2Vec") && !KK.supports("MetaPath"))
    Seq("PPR", "DeepWalk", "Node2Vec", "MetaPath").foreach { a =>
      assert(BL.supports(a) && HG.supports(a) && TRW.supports(a))
    }
  }

  test("sampler choices follow §6.1") {
    import repro.sampling.SamplingMethod._
    assert(BL.samplingFor("Node2Vec") == ALIAS && BL.samplingFor("MetaPath") == ALIAS)
    assert(HG.samplingFor("Node2Vec") == OREJ && HG.samplingFor("MetaPath") == ITS)
    assert(TRW.sampling == HG.sampling)
    assert(KK.sampling.values.forall(_ == OREJ))
  }

  test("BL is serial; all other systems use the 10 workers") {
    assert(BL.threads == 1)
    Seq(HG, GW, KK, TRW).foreach(s => assert(s.threads == Threads))
  }

  test("only TRW (and the -si variants) interleave") {
    import repro.core.EngineKind
    assert(TRW.kind == EngineKind.Interleaved)
    Seq(BL, HG, GW, KK).foreach(s => assert(s.kind == EngineKind.Sequential))
    assert(GWsi.kind == EngineKind.Interleaved && KKsi.kind == EngineKind.Interleaved)
  }
}
