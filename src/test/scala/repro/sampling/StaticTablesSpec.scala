package repro.sampling

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemSim

/** Preprocessing-pass invariants over real CSR graphs. */
class StaticTablesSpec extends SparkSpec with GraphFixtures {

  lazy val g = tinyGraph(n = 120, e = 700, seed = 3L)

  test("ITS tables: per-vertex cdf is monotone and ends at the weight sum") {
    val t = StaticTables.build(g, WalkerType.Static, SamplingMethod.ITS)
    (0 until g.numVertices).foreach { v =>
      val base = g.edgeBegin(v)
      val d = g.degree(v)
      if (d > 0) {
        var prev = 0.0
        var sum = 0.0
        (0 until d).foreach { i =>
          assert(t.cdf(base + i) >= prev - 1e-9)
          prev = t.cdf(base + i)
          sum += g.weight(base + i)
        }
        assert(math.abs(t.cdf(base + d - 1) - sum) < 1e-6 * math.max(1.0, sum))
      }
    }
  }

  test("ITS tables under uniform weights: cdf(i) = i+1") {
    val t = StaticTables.build(g, WalkerType.Unbiased, SamplingMethod.ITS)
    (0 until g.numVertices).foreach { v =>
      val base = g.edgeBegin(v)
      (0 until g.degree(v)).foreach(i => assert(math.abs(t.cdf(base + i) - (i + 1)) < 1e-9))
    }
  }

  test("REJ tables: per-vertex max equals the max edge weight") {
    val t = StaticTables.build(g, WalkerType.Static, SamplingMethod.REJ)
    (0 until g.numVertices).foreach { v =>
      val d = g.degree(v)
      if (d > 0) {
        val mx = (0 until d).map(i => g.weight(g.edgeBegin(v) + i)).max
        assert(math.abs(t.rejMax(v) - mx) < 1e-6)
      }
    }
  }

  test("ALIAS tables: bucket mass reconstructs normalised weights per vertex") {
    val t = StaticTables.build(g, WalkerType.Static, SamplingMethod.ALIAS)
    (0 until g.numVertices).foreach { v =>
      val base = g.edgeBegin(v)
      val d = g.degree(v)
      if (d > 0) {
        val sum = (0 until d).map(i => g.weight(base + i).toDouble).sum
        val mass = new Array[Double](d)
        (0 until d).foreach { i =>
          mass(i) += t.aliasProb(base + i)
          if (t.aliasSecond(base + i) >= 0) {
            assert(t.aliasSecond(base + i) >= base && t.aliasSecond(base + i) < base + d)
            mass(t.aliasSecond(base + i) - base) += 1.0 - t.aliasProb(base + i)
          }
        }
        (0 until d).foreach { i =>
          val expect = g.weight(base + i) * d / sum
          assert(math.abs(mass(i) - expect) < 1e-5, s"v=$v i=$i mass=${mass(i)} expect=$expect")
        }
      }
    }
  }

  test("NAIVE / O-REJ build no tables (no initialization phase)") {
    Seq(SamplingMethod.NAIVE, SamplingMethod.OREJ).foreach { m =>
      val t = StaticTables.build(g, WalkerType.Unbiased, m)
      assert(t == null)
    }
  }

  test("preprocessing charges the simulator when provided") {
    val sim = new MemSim()
    StaticTables.build(g, WalkerType.Static, SamplingMethod.ALIAS, sim)
    assert(sim.cycles > 0 && sim.instructions > 0)
    assert(sim.coreStallCycles > 0, "alias normalisation divisions must core-stall")
  }

  test("ITS preprocessing is cheaper than ALIAS preprocessing (why HG prefers ITS init)") {
    val s1 = new MemSim(); StaticTables.build(g, WalkerType.Static, SamplingMethod.ITS, s1)
    val s2 = new MemSim(); StaticTables.build(g, WalkerType.Static, SamplingMethod.ALIAS, s2)
    assert(s1.cycles < s2.cycles)
  }

  // (graph/walker type/method, cycles, instructions, computeCycles,
  // memStallCycles, coreStallCycles, dramLines, hash of the four arrays)
  private val goldenPreprocessing: Seq[(String, Double, Long, Double, Double, Double, Long, Int)] = Seq(
    ("sparse/Unbiased/ITS", 4200.0, 4800L, 2400.0, 1800.0, 0.0, 225L, 1733114368),
    ("sparse/Unbiased/ALIAS", 17400.0, 19200L, 9600.0, 1800.0, 6000.0, 225L, 1546391296),
    ("sparse/Unbiased/REJ", 3800.0, 4000L, 2000.0, 1800.0, 0.0, 100L, -1589202432),
    ("sparse/Static/ITS", 4200.0, 4800L, 2400.0, 1800.0, 0.0, 225L, 966939248),
    ("sparse/Static/ALIAS", 19525.0, 23450L, 11725.0, 1800.0, 6000.0, 225L, 1408798835),
    ("sparse/Static/REJ", 3800.0, 4000L, 2000.0, 1800.0, 0.0, 100L, 580056216),
    ("golden/Unbiased/ITS", 84000.0, 96000L, 48000.0, 36000.0, 0.0, 4500L, 353778688),
    ("golden/Unbiased/ALIAS", 348000.0, 384000L, 192000.0, 36000.0, 120000.0, 4500L, -988487680),
    ("golden/Unbiased/REJ", 73000.0, 74000L, 37000.0, 36000.0, 0.0, 1625L, 1703504384),
    ("golden/Static/ITS", 84000.0, 96000L, 48000.0, 36000.0, 0.0, 4500L, 1293092954),
    ("golden/Static/ALIAS", 403007.5, 494015L, 247007.5, 36000.0, 120000.0, 4500L, 953258668),
    ("golden/Static/REJ", 73000.0, 74000L, 37000.0, 36000.0, 0.0, 1625L, 738918600),
  )

  test("preprocessing charges and table contents are pinned bit for bit") {
    // "sparse" has 50 zero-degree vertices; "golden" is GoldenStatsSpec's graph.
    val graphs = Map("sparse" -> tinyGraph(n = 400, e = 600, seed = 9L),
      "golden" -> tinyGraph(n = 2000, e = 12000, seed = 5L))
    for ((name, cycles, instr, compute, mem, core, dram, hash) <- goldenPreprocessing) {
      val Array(gname, wt, m) = name.split("/")
      val sim = new MemSim()
      val t = StaticTables.build(graphs(gname), WalkerType.withName(wt), SamplingMethod.withName(m), sim)
      val s = sim.snapshot()
      val bits = java.lang.Double.doubleToLongBits _
      assert(Seq(s.cycles, s.computeCycles, s.memStallCycles, s.coreStallCycles).map(bits) ==
        Seq(cycles, compute, mem, core).map(bits), s"$name: $s")
      assert(s.instructions == instr && s.dramLines == dram, s"$name: $s")
      import java.util.Arrays.{hashCode => h}
      assert((h(t.aliasProb) * 31 + h(t.aliasSecond)) * 31 + h(t.cdf) * 31 + h(t.rejMax) == hash, name)
    }
  }

  test("uniform alias tables degenerate to probability 1 single buckets") {
    val t = StaticTables.build(g, WalkerType.Unbiased, SamplingMethod.ALIAS)
    (0 until g.numEdges).foreach { e =>
      assert(math.abs(t.aliasProb(e) - 1.0) < 1e-9)
    }
  }
}
