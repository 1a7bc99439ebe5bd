package repro.core

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemConfig
import repro.sampling.{SamplingMethod, StaticTables, WalkerType}

/** Empirical verification of Table 3's complexity claims: total work
  * scales with T (steps), dynamic RW pays the O(d_avg) gather per step,
  * and O-REJ skips both preprocessing and gather.
  */
class ComplexitySpec extends SparkSpec with GraphFixtures {

  private lazy val g = tinyGraph(n = 2000, e = 16000, seed = 111L)
  private val cfg = MemConfig()

  private def cycles(app: RandomWalkApp, m: SamplingMethod.Value, n: Int): (Double, Long) = {
    val rng = new java.util.SplittableRandom(4L)
    val src = Array.fill(n)(rng.nextInt(g.numVertices))
    val t = StaticTables.build(g, app.walkerType, m)
    val res = ThunderRW.runLocal(g, app, m, EngineKind.Sequential, t,
      ThunderRW.makeWalkers(0 until n, src, 9L), cfg)
    (res.stats.cycles, res.steps)
  }

  test("execution cost scales ~linearly with the number of steps T") {
    val (c1, s1) = cycles(new Apps.DeepWalk(10), SamplingMethod.ALIAS, 200)
    val (c2, s2) = cycles(new Apps.DeepWalk(40), SamplingMethod.ALIAS, 200)
    val ratio = (c2 / c1) / (s2.toDouble / s1)
    assert(ratio > 0.5 && ratio < 2.0, s"ratio=$ratio")
  }

  test("dynamic RW costs a d_avg factor more per step than static RW (ITS)") {
    def instrPerStep(app: RandomWalkApp): (Double, Double) = {
      val rng = new java.util.SplittableRandom(4L)
      val src = Array.fill(300)(rng.nextInt(g.numVertices))
      val t = StaticTables.build(g, app.walkerType, SamplingMethod.ITS)
      val res = ThunderRW.runLocal(g, app, SamplingMethod.ITS, EngineKind.Sequential, t,
        ThunderRW.makeWalkers(0 until 300, src, 9L), cfg)
      (res.stats.instructions.toDouble / res.steps, res.stats.cycles / res.steps)
    }
    val (isS, csS) = instrPerStep(new Apps.DeepWalk(20))
    val (isD, csD) = instrPerStep(new Apps.Node2Vec(2.0, 0.5, 20))
    // instructions expose the O(d_avg) gather cleanly; cycles are noisier
    // on a cache-resident test graph but must still clearly exceed static.
    assert(isD > 3 * isS, s"dynamic=$isD static=$isS instructions/step")
    // cycles are dominated by cache behaviour on this small graph: the
    // static walk misses on its cdf tables while the dynamic gather stays
    // in hot buffers, so only a modest cycle gap is expected here.
    assert(csD > 1.2 * csS, s"dynamic=$csD static=$csS cycles/step")
  }

  test("O-REJ requires no preprocessing for any RW type (Table 3 last row)") {
    Seq(new Apps.DeepWalkUnbiased(5), new Apps.DeepWalk(5),
        new Apps.Node2Vec(2.0, 0.5, 5)).foreach { app =>
      val (t, c) = ThunderRW.preprocess(g, app, SamplingMethod.OREJ, cfg)
      assert(t == null && c == 0.0)
    }
  }

  test("static ITS/ALIAS/REJ pay a one-off O(|E|) preprocessing cost") {
    Seq(SamplingMethod.ITS, SamplingMethod.ALIAS, SamplingMethod.REJ).foreach { m =>
      val (_, c) = ThunderRW.preprocess(g, new Apps.DeepWalk(5), m, cfg)
      assert(c > 0, s"$m should charge preprocessing")
    }
  }

  test("alias preprocessing grows linearly with |E|") {
    val g2 = tinyGraph(n = 2000, e = 32000, seed = 112L)
    val (_, c1) = ThunderRW.preprocess(g, new Apps.DeepWalk(5), SamplingMethod.ALIAS, cfg)
    val (_, c2) = ThunderRW.preprocess(g2, new Apps.DeepWalk(5), SamplingMethod.ALIAS, cfg)
    val ratio = c2 / c1 / (g2.numEdges.toDouble / g.numEdges)
    assert(ratio > 0.5 && ratio < 2.0, s"ratio=$ratio")
  }

  test("NAIVE per-step cost is the cheapest of all samplers (unbiased)") {
    val per = Seq(SamplingMethod.NAIVE, SamplingMethod.ITS, SamplingMethod.ALIAS,
      SamplingMethod.REJ, SamplingMethod.OREJ).map { m =>
      val (c, s) = cycles(new Apps.DeepWalkUnbiased(20), m, 300)
      m -> c / s
    }.toMap
    val naive = per(SamplingMethod.NAIVE)
    assert(per.values.forall(_ >= naive * 0.8), s"per-step costs: $per")
  }

  test("rejection sampling with skewed weights costs more tries than uniform") {
    // REJ E[tries] = d*p*/sum: compare uniform vs heavy-skew weights
    val uni = explicitGraph(3, (0 until 8).map(i => (0, 1 + (i % 2), 1.0f, 0)), undirect = false)
    val skew = explicitGraph(3, (0 until 8).map(i => (0, 1 + (i % 2), if (i == 0) 8.0f else 0.5f, 0)), undirect = false)
    def perStep(gr: repro.graph.CSRGraph): Double = {
      val app = new Apps.DeepWalk(1)
      val t = StaticTables.build(gr, WalkerType.Static, SamplingMethod.REJ)
      val walkers = ThunderRW.makeWalkers(0 until 2000, Array.fill(2000)(0), 9L)
      val res = ThunderRW.runLocal(gr, app, SamplingMethod.REJ, EngineKind.Sequential, t, walkers, cfg)
      res.stats.instructions.toDouble / res.steps
    }
    assert(perStep(skew) > perStep(uni))
  }
}
