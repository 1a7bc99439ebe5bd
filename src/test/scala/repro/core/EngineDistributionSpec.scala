package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemConfig
import repro.sampling.{SamplingMethod, StaticTables}

/** End-to-end distribution correctness: a single step taken through the
  * full engine (tables + stage machines) must follow the transition
  * probabilities, for every sampler and engine kind.
  */
class EngineDistributionSpec extends SparkSpec with GraphFixtures {

  private lazy val g = tinyGraph(n = 60, e = 500, seed = 41L)
  private val cfg = MemConfig()
  private val N = 20000

  private def firstStepCounts(app: RandomWalkApp, m: SamplingMethod.Value,
                              kind: EngineKind.Value, v: Int): Map[Int, Int] = {
    val t = StaticTables.build(g, app.walkerType, m)
    val walkers = ThunderRW.makeWalkers(0 until N, Array.fill(N)(v), seed = 3L)
    ThunderRW.runLocal(g, app, m, kind, t, walkers, cfg, 32)
    walkers.toSeq.groupBy(_.path(1)).map { case (k, ws) => k -> ws.size }
  }

  private def expectedByNeighbor(v: Int, weightOf: Int => Double): Map[Int, Double] = {
    val base = g.edgeBegin(v)
    val d = g.degree(v)
    val sum = (0 until d).map(i => weightOf(base + i)).sum
    (0 until d).groupBy(i => g.neighbor(base + i))
      .map { case (nbr, idxs) => nbr -> idxs.map(i => weightOf(base + i)).sum / sum }
  }

  private lazy val v0 = (0 until g.numVertices).maxBy(g.degree)

  private def check(app: RandomWalkApp, m: SamplingMethod.Value, kind: EngineKind.Value,
                    weightOf: Int => Double): Unit = {
    val counts = firstStepCounts(app, m, kind, v0)
    val exp = expectedByNeighbor(v0, weightOf)
    exp.foreach { case (nbr, p) =>
      val emp = counts.getOrElse(nbr, 0).toDouble / N
      assert(math.abs(emp - p) < 0.025 + 0.2 * p * 0.1,
        s"$m/$kind nbr=$nbr p=$p emp=$emp")
    }
  }

  private val uniformW: Int => Double = _ => 1.0
  private val edgeW: Int => Double = e => g.weight(e).toDouble

  for (kind <- Seq(EngineKind.Sequential, EngineKind.Interleaved)) {
    test(s"$kind NAIVE unbiased matches uniform") {
      check(new Apps.DeepWalkUnbiased(1), SamplingMethod.NAIVE, kind, uniformW)
    }
    test(s"$kind ITS static matches edge weights") {
      check(new Apps.DeepWalk(1), SamplingMethod.ITS, kind, edgeW)
    }
    test(s"$kind ALIAS static matches edge weights") {
      check(new Apps.DeepWalk(1), SamplingMethod.ALIAS, kind, edgeW)
    }
    test(s"$kind REJ static matches edge weights") {
      check(new Apps.DeepWalk(1), SamplingMethod.REJ, kind, edgeW)
    }
    test(s"$kind O-REJ static matches edge weights") {
      check(new Apps.DeepWalk(1), SamplingMethod.OREJ, kind, edgeW)
    }
    test(s"$kind ITS dynamic (MetaPath-style uniform filter) matches filtered mass") {
      val schema = Array(1)
      val app = new Apps.MetaPath(schema, 1)
      val filtered: Int => Double = e => if (g.label(e) == 1) 1.0 else 0.0
      val base = g.edgeBegin(v0)
      val mass = (0 until g.degree(v0)).map(i => filtered(base + i)).sum
      if (mass > 0) check(app, SamplingMethod.ITS, kind, filtered)
    }
  }

  test("unbiased ITS/ALIAS/REJ/NAIVE all agree on the uniform distribution") {
    val apps = Seq(
      SamplingMethod.NAIVE, SamplingMethod.ITS, SamplingMethod.ALIAS,
      SamplingMethod.REJ, SamplingMethod.OREJ)
    val dists = apps.map { m =>
      val counts = firstStepCounts(new Apps.DeepWalkUnbiased(1), m, EngineKind.Sequential, v0)
      counts.view.mapValues(_.toDouble / N).toMap
    }
    val exp = expectedByNeighbor(v0, uniformW)
    dists.zip(apps).foreach { case (dist, m) =>
      exp.foreach { case (nbr, p) =>
        assert(math.abs(dist.getOrElse(nbr, 0.0) - p) < 0.03, s"$m nbr=$nbr")
      }
    }
  }
}
