package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.{MemConfig, MemSim}
import repro.sampling.{SamplingMethod, StaticTables}
import repro.graph.CSRGraph

/** Semantics of the four RW applications. */
class AppsSpec extends SparkSpec with GraphFixtures {

  private lazy val g: CSRGraph = tinyGraph(n = 120, e = 800, seed = 31L)
  private val cfg = MemConfig()

  private def runApp(app: RandomWalkApp, m: SamplingMethod.Value, n: Int,
                     sources: Array[Int] = null): Seq[Walker] = {
    val src = if (sources != null) sources
      else {
        val rng = new java.util.SplittableRandom(8L)
        Array.fill(n)(rng.nextInt(g.numVertices))
      }
    val t = StaticTables.build(g, app.walkerType, m)
    val walkers = ThunderRW.makeWalkers(0 until n, src, seed = 13L)
    ThunderRW.runLocal(g, app, m, EngineKind.Sequential, t, walkers, cfg)
    walkers.toSeq
  }

  // ---- PPR ----
  test("PPR walk lengths are geometric with mean ~ 1/stopProb") {
    val ws = runApp(new Apps.PPR(0.2), SamplingMethod.NAIVE, 3000)
    val mean = ws.map(_.length).sum.toDouble / ws.size
    assert(mean > 3.5 && mean < 6.5, s"mean=$mean expected ~5")
  }

  test("PPR with higher stop probability walks shorter") {
    val a = runApp(new Apps.PPR(0.5), SamplingMethod.NAIVE, 1000)
    val b = runApp(new Apps.PPR(0.1), SamplingMethod.NAIVE, 1000)
    assert(a.map(_.length).sum < b.map(_.length).sum)
  }

  test("PPR single-source: all walks start at the source") {
    val src = Array.fill(100)(7)
    val ws = runApp(new Apps.PPR(0.2), SamplingMethod.NAIVE, 100, src)
    assert(ws.forall(_.path.head == 7))
  }

  // ---- DeepWalk ----
  test("DeepWalk walks have exactly targetLength steps (no dead ends in tiny graph)") {
    val ws = runApp(new Apps.DeepWalk(25), SamplingMethod.ALIAS, 200)
    assert(ws.forall(w => w.length == 25 || g.degree(w.cur) == 0))
  }

  test("DeepWalk favors heavy edges: empirical vs expected first-step distribution") {
    // one source vertex, many walkers, single step distribution ~ weight
    val v = (0 until g.numVertices).find(v => g.degree(v) >= 4).get
    val app = new Apps.DeepWalk(1)
    val ws = runApp(app, SamplingMethod.ALIAS, 20000, Array.fill(20000)(v))
    val base = g.edgeBegin(v)
    val d = g.degree(v)
    val counts = new Array[Int](d)
    ws.foreach { w =>
      val nxt = w.path(1)
      // count by first matching edge index (multi-edges pooled below)
      var i = 0; var found = -1
      while (i < d && found < 0) { if (g.neighbor(base + i) == nxt) found = i; i += 1 }
      counts(found) += 1
    }
    // pool per neighbor (multi-edges share a destination)
    val byNbr = (0 until d).groupBy(i => g.neighbor(base + i))
    val sum = (0 until d).map(i => g.weight(base + i).toDouble).sum
    byNbr.foreach { case (_, idxs) =>
      val p = idxs.map(i => g.weight(base + i).toDouble).sum / sum
      val c = idxs.map(counts).sum
      assert(math.abs(c.toDouble / 20000 - p) < 0.02, s"p=$p emp=${c / 20000.0}")
    }
  }

  // ---- Node2Vec ----
  test("Node2Vec transition distribution matches Eq. 1 (brute force)") {
    val a = 2.0; val b = 0.5
    val app = new Apps.Node2Vec(a, b, 2)
    val n = 30000
    val v0 = (0 until g.numVertices).find(v => g.degree(v) >= 3).get
    val ws = runApp(app, SamplingMethod.ALIAS, n, Array.fill(n)(v0)) // dynamic ALIAS = exact
    // pool second-step transitions by (prev=v0, cur) pairs with enough samples
    val grouped = ws.filter(_.length >= 2).groupBy(_.path(1))
    grouped.filter(_._2.size >= 2000).foreach { case (cur, walkers) =>
      val base = g.edgeBegin(cur)
      val d = g.degree(cur)
      // brute-force Eq. 1 weights with prev = v0
      val wts = (0 until d).map { i =>
        val dst = g.neighbor(base + i)
        if (dst == v0) 1.0 / a
        else if (g.isNeighbor(v0, dst)) 1.0
        else 1.0 / b
      }
      val sumW = wts.sum
      val counts = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
      walkers.foreach(w => counts(w.path(2)) += 1)
      val byNbr = (0 until d).groupBy(i => g.neighbor(base + i))
      byNbr.foreach { case (nbr, idxs) =>
        val p = idxs.map(wts).sum / sumW
        val emp = counts(nbr).toDouble / walkers.size
        assert(math.abs(emp - p) < 0.04, s"cur=$cur nbr=$nbr p=$p emp=$emp")
      }
    }
  }

  test("Node2Vec weight function returns {1/a, 1, 1/b} per Eq. 1") {
    val app = new Apps.Node2Vec(2.0, 0.5, 10)
    val sim = new MemSim(cfg)
    val ctx = new SimCtx(sim)
    val w = new Walker(0, 0, 1L)
    // no prev yet -> maxWeight
    assert(app.weight(ctx, g, w, g.edgeBegin(0)) == app.maxWeight(g))
    // fabricate a second-order state
    val v0 = (0 until g.numVertices).find(v => g.degree(v) >= 2).get
    val base = g.edgeBegin(v0)
    val first = g.neighbor(base)
    val w2 = new Walker(1, v0, 1L)
    w2.move(first) // prev = v0, cur = first
    val curBase = g.edgeBegin(first)
    (0 until g.degree(first)).foreach { i =>
      val dst = g.neighbor(curBase + i)
      val expected =
        if (dst == v0) 0.5
        else if (g.isNeighbor(v0, dst)) 1.0
        else 2.0
      assert(app.weight(ctx, g, w2, curBase + i) == expected)
    }
  }

  // ---- MetaPath ----
  test("MetaPath walks only traverse schema-matching labels") {
    val schema = Array(0, 2, 1, 4, 3)
    val app = new Apps.MetaPath(schema, 20)
    val ws = runApp(app, SamplingMethod.ITS, 300)
    ws.foreach { w =>
      val p = w.path
      (1 until p.length).foreach { step =>
        val u = p(step - 1); val v = p(step)
        val base = g.edgeBegin(u)
        val want = schema((step - 1) % schema.length)
        // at least one edge u->v with the schema label must exist
        val ok = (0 until g.degree(u)).exists(i =>
          g.neighbor(base + i) == v && g.label(base + i) == want)
        assert(ok, s"step $step: $u->$v has no edge with label $want")
      }
    }
  }

  test("MetaPath dead-ends terminate early when no label matches") {
    // graph with labels that cannot continue after one step
    val gg = explicitGraph(3, Seq((0, 1, 1f, 0), (1, 2, 1f, 0)), undirect = false)
    val app = new Apps.MetaPath(Array(0, 1), 10) // second step needs label 1: absent
    val walkers = ThunderRW.makeWalkers(Seq(0), Array(0), seed = 5L)
    ThunderRW.runLocal(gg, app, SamplingMethod.ITS, EngineKind.Sequential, null, walkers, cfg)
    assert(walkers.head.length == 1, s"walk=${walkers.head.path.mkString(",")}")
  }

  test("MetaPath factory builds a schema inside the label range") {
    val mp = Apps.metaPathFor(nLabels = 7, len = 5)
    assert(mp.schema.length == 5)
    assert(mp.schema.forall(l => l >= 0 && l < 7))
  }

  test("unsupported MaxWeight raises for MetaPath (KnightKing limitation)") {
    val mp = Apps.metaPathFor(5)
    intercept[RuntimeException](mp.maxWeight(g))
  }
}
