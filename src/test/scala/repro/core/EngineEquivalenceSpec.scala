package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemConfig
import repro.sampling.{SamplingMethod, StaticTables}
import repro.graph.CSRGraph

/** Step interleaving is a pure scheduling transformation: for every
  * (app × sampler) combination the interleaved and AMAC engines must
  * produce walks bitwise identical to the sequential engine, because each
  * walker owns its RNG and stages never reorder a walker's draws.
  */
class EngineEquivalenceSpec extends SparkSpec with GraphFixtures {

  private lazy val g: CSRGraph = tinyGraph(n = 150, e = 900, seed = 21L)
  private val cfg = MemConfig()

  private def walks(app: RandomWalkApp, m: SamplingMethod.Value,
                    kind: EngineKind.Value, n: Int, ring: Int): Seq[Seq[Int]] = {
    val tables = StaticTables.build(g, app.walkerType, m)
    val rng = new java.util.SplittableRandom(4L)
    val sources = Array.fill(n)(rng.nextInt(g.numVertices))
    val walkers = ThunderRW.makeWalkers(0 until n, sources, seed = 77L)
    val res = ThunderRW.runLocal(g, app, m, kind, tables, walkers, cfg, ring)
    res.walks.map(_.toSeq).toSeq
  }

  private val configs: Seq[(String, () => RandomWalkApp, SamplingMethod.Value)] = Seq(
    ("PPR/NAIVE", () => new Apps.PPR(0.2), SamplingMethod.NAIVE),
    ("PPR/OREJ", () => new Apps.PPR(0.2), SamplingMethod.OREJ),
    ("unbiased/ITS", () => new Apps.DeepWalkUnbiased(15), SamplingMethod.ITS),
    ("unbiased/ALIAS", () => new Apps.DeepWalkUnbiased(15), SamplingMethod.ALIAS),
    ("unbiased/REJ", () => new Apps.DeepWalkUnbiased(15), SamplingMethod.REJ),
    ("DeepWalk/ALIAS", () => new Apps.DeepWalk(15), SamplingMethod.ALIAS),
    ("DeepWalk/ITS", () => new Apps.DeepWalk(15), SamplingMethod.ITS),
    ("DeepWalk/REJ", () => new Apps.DeepWalk(15), SamplingMethod.REJ),
    ("DeepWalk/OREJ", () => new Apps.DeepWalk(15), SamplingMethod.OREJ),
    ("Node2Vec/OREJ", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.OREJ),
    ("Node2Vec/ALIAS-dyn", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.ALIAS),
    ("Node2Vec/ITS-dyn", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.ITS),
    ("Node2Vec/REJ-dyn", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.REJ),
    ("MetaPath/ITS-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 12), SamplingMethod.ITS),
    ("MetaPath/ALIAS-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 12), SamplingMethod.ALIAS),
    ("MetaPath/REJ-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 12), SamplingMethod.REJ),
  )

  for ((name, mk, m) <- configs) {
    test(s"interleaved == sequential walks: $name") {
      val seqW = walks(mk(), m, EngineKind.Sequential, 60, 16)
      val intW = walks(mk(), m, EngineKind.Interleaved, 60, 16)
      assert(seqW == intW)
    }
    test(s"AMAC == sequential walks: $name") {
      val seqW = walks(mk(), m, EngineKind.Sequential, 60, 16)
      val amacW = walks(mk(), m, EngineKind.Amac, 60, 16)
      assert(seqW == amacW)
    }
  }

  for (ring <- Seq(1, 2, 7, 32, 128)) {
    test(s"ring size $ring does not change walks (DeepWalk/ALIAS)") {
      val a = walks(new Apps.DeepWalk(10), SamplingMethod.ALIAS, EngineKind.Interleaved, 50, ring)
      val b = walks(new Apps.DeepWalk(10), SamplingMethod.ALIAS, EngineKind.Sequential, 50, 16)
      assert(a == b)
    }
  }

  test("walks are deterministic across repeated runs") {
    val a = walks(new Apps.DeepWalk(10), SamplingMethod.ALIAS, EngineKind.Sequential, 40, 16)
    val b = walks(new Apps.DeepWalk(10), SamplingMethod.ALIAS, EngineKind.Sequential, 40, 16)
    assert(a == b)
  }

  test("every step of every walk follows an actual edge") {
    val ws = walks(new Apps.DeepWalk(20), SamplingMethod.ALIAS, EngineKind.Interleaved, 50, 16)
    ws.foreach { p =>
      p.sliding(2).foreach {
        case Seq(u, v) => assert(g.isNeighbor(u, v), s"no edge $u->$v")
        case _         =>
      }
    }
  }

  test("walkers on a zero-degree source emit a single-vertex walk") {
    val iso = explicitGraph(5, Seq((0, 1, 1f, 0)), undirect = false)
    // vertex 3 has no out-edges
    val app = new Apps.DeepWalk(10)
    val walkers = ThunderRW.makeWalkers(Seq(0), Array(3), seed = 1L)
    val t = StaticTables.build(iso, app.walkerType, SamplingMethod.ALIAS)
    val res = ThunderRW.runLocal(iso, app, SamplingMethod.ALIAS, EngineKind.Interleaved, t, walkers, cfg, 8)
    assert(res.walks.head.toSeq == Seq(3))
  }
}
