package repro.sampling

import repro.{GraphFixtures, SparkSpec}
import repro.memsim.MemSim

/** Preprocessing-pass invariants over real CSR graphs. */
class StaticTablesSpec extends SparkSpec with GraphFixtures {

  lazy val g = tinyGraph(n = 120, e = 700, seed = 3L)

  test("ITS tables: per-vertex cdf is monotone and ends at the weight sum") {
    val t = StaticTables.build(g, SamplingMethod.ITS, uniform = false)
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
    val t = StaticTables.build(g, SamplingMethod.ITS, uniform = true)
    (0 until g.numVertices).foreach { v =>
      val base = g.edgeBegin(v)
      (0 until g.degree(v)).foreach(i => assert(math.abs(t.cdf(base + i) - (i + 1)) < 1e-9))
    }
  }

  test("REJ tables: per-vertex max equals the max edge weight") {
    val t = StaticTables.build(g, SamplingMethod.REJ, uniform = false)
    (0 until g.numVertices).foreach { v =>
      val d = g.degree(v)
      if (d > 0) {
        val mx = (0 until d).map(i => g.weight(g.edgeBegin(v) + i)).max
        assert(math.abs(t.rejMax(v) - mx) < 1e-6)
      }
    }
  }

  test("ALIAS tables: bucket mass reconstructs normalised weights per vertex") {
    val t = StaticTables.build(g, SamplingMethod.ALIAS, uniform = false)
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
      val t = StaticTables.build(g, m, uniform = true)
      assert(t.memoryBytes == 0)
    }
  }

  test("preprocessing charges the simulator when provided") {
    val sim = new MemSim()
    StaticTables.build(g, SamplingMethod.ALIAS, uniform = false, sim)
    assert(sim.cycles > 0 && sim.instructions > 0)
    assert(sim.coreStallCycles > 0, "alias normalisation divisions must core-stall")
  }

  test("ITS preprocessing is cheaper than ALIAS preprocessing (why HG prefers ITS init)") {
    val s1 = new MemSim(); StaticTables.build(g, SamplingMethod.ITS, uniform = false, s1)
    val s2 = new MemSim(); StaticTables.build(g, SamplingMethod.ALIAS, uniform = false, s2)
    assert(s1.cycles < s2.cycles)
  }

  test("uniform alias tables degenerate to probability 1 single buckets") {
    val t = StaticTables.build(g, SamplingMethod.ALIAS, uniform = true)
    (0 until g.numEdges).foreach { e =>
      assert(math.abs(t.aliasProb(e) - 1.0) < 1e-9)
    }
  }
}
