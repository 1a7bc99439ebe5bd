package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemConfig
import repro.sampling.{SamplingMethod, StaticTables, WalkerType}
import repro.sampling.SamplingMethod._

/** The sampling-table contract: an engine accepts exactly the tables (or
  * the null) that `StaticTables.build` returns for its graph, walker type
  * and sampler, and rejects any other set at construction with a message
  * naming what it expected and what it was given.
  */
class TableContractSpec extends SparkSpec with GraphFixtures {

  private lazy val g = tinyGraph(n = 300, e = 2000, seed = 71L)
  private val cfg = MemConfig()
  private val deepWalk = new Apps.DeepWalk(8)

  private def run(app: RandomWalkApp, m: SamplingMethod.Value, t: StaticTables): EngineResult = {
    val n = 50
    val walkers = ThunderRW.makeWalkers(0 until n, Array.tabulate(n)(i => i * 7 % g.numVertices), 9L)
    ThunderRW.runLocal(g, app, m, EngineKind.Interleaved, t, walkers, cfg, taskRing = 8)
  }

  private def rejection(app: RandomWalkApp, m: SamplingMethod.Value, t: StaticTables): String =
    intercept[IllegalArgumentException](run(app, m, t)).getMessage

  private def size(graph: repro.graph.CSRGraph) =
    s"on ${graph.numVertices} vertices and ${graph.numEdges} edges"

  test("ALIAS given ITS tables is rejected, naming both") {
    val msg = rejection(deepWalk, ALIAS, StaticTables.build(g, WalkerType.Static, ITS))
    assert(msg.contains(s"needs ALIAS tables for Static walks ${size(g)}, got ITS tables for Static walks"), msg)
  }

  test("ALIAS given a smaller or a larger graph's tables is rejected") {
    for (other <- Seq(tinyGraph(n = 120, e = 700, seed = 3L), tinyGraph(n = 600, e = 4000, seed = 72L))) {
      val msg = rejection(deepWalk, ALIAS, StaticTables.build(other, WalkerType.Static, ALIAS))
      assert(msg.contains(s"needs ALIAS tables for Static walks ${size(g)}, " +
        s"got ALIAS tables for Static walks ${size(other)}"), msg)
    }
  }

  test("a weighted walk given unbiased (uniform) tables is rejected") {
    for (m <- Seq(ITS, ALIAS, REJ)) {
      val msg = rejection(deepWalk, m, StaticTables.build(g, WalkerType.Unbiased, m))
      assert(msg.contains(s"got $m tables for Unbiased walks"), msg)
    }
  }

  test("over every walker type and sampler the engine accepts exactly what build returns") {
    val apps = Seq(new Apps.DeepWalkUnbiased(8), deepWalk, new Apps.Node2Vec(2.0, 0.5, 8))
    val candidates: Seq[StaticTables] = null +:
      (for (wt <- Seq(WalkerType.Unbiased, WalkerType.Static); m <- Seq(ITS, ALIAS, REJ))
        yield StaticTables.build(g, wt, m))
    for (app <- apps; m <- SamplingMethod.values.toSeq) {
      val wt = app.walkerType
      if (m == NAIVE && wt != WalkerType.Unbiased) {
        val e = intercept[IllegalArgumentException](StaticTables.build(g, wt, m))
        assert(e.getMessage.contains("NAIVE sampling only supports unbiased random walk"))
        for (t <- candidates) intercept[IllegalArgumentException](run(app, m, t))
      } else {
        val built = StaticTables.build(g, wt, m)
        assert((built == null) == (m == NAIVE || m == OREJ || wt == WalkerType.Dynamic), s"$wt $m")
        assert(run(app, m, built).steps > 0, s"$wt $m")
        val accepted = candidates.filter { t =>
          val fits = Option(t).map(_.key) == Option(built).map(_.key)
          if (fits) run(app, m, t)
          else assert(rejection(app, m, t).contains(s"$m on $wt walks over ${g.name} needs"), s"$wt $m")
          fits
        }
        assert(accepted.size == 1, s"$wt $m accepted ${accepted.size} candidates")
        if (built != null) assert(rejection(app, m, null).contains("got no tables"), s"$wt $m")
      }
    }
  }

  test("O-REJ on an app without MaxWeight fails on the driver, before any job runs") {
    val mp = Apps.metaPathFor(g.labels.max + 1)
    val sources = Array.tabulate(20)(i => i * 11 % g.numVertices)
    // A failure inside a Spark task would reach the driver as a SparkException.
    val e = intercept[RuntimeException](ThunderRW.run(spark, g, mp, OREJ, EngineKind.Interleaved,
      20, sources, threads = 2, cfg = cfg))
    assert(e.getMessage.contains("MetaPath does not define MaxWeight"), e.toString)
    val l = intercept[RuntimeException](run(mp, OREJ, null))
    assert(l.getMessage.contains("MetaPath does not define MaxWeight"), l.toString)
  }
}
