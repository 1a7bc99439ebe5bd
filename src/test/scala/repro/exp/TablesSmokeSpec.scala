package repro.exp

import repro.SparkSpec
import repro.core.RingTuner
import repro.systems.Systems

/** Smoke runs of every table pipeline at tiny scale: the bench suites run
  * the full versions; here we assert the machinery and the headline
  * shapes end-to-end.
  */
class TablesSmokeSpec extends SparkSpec {

  override def withFixture(test: NoArgTest) = {
    Experiments.scaleOverride = Some(0.05)
    try super.withFixture(test)
    finally Experiments.scaleOverride = None
  }

  test("table1 produces six rows with sane TMAM") {
    val rows = Tables.table1(spark)
    assert(rows.map(_.method) == Seq("BFS", "SSSP", "PPR", "DeepWalk", "Node2Vec", "MetaPath"))
    rows.foreach { r =>
      val t = r.tmam
      val sum = t.frontEnd + t.badSpec + t.core + t.memory + t.retiring
      assert(math.abs(sum - 1.0) < 1e-6)
      assert(r.bandwidthGBs >= 0)
    }
  }

  test("table1 shape: first-order RW more memory-bound than BFS/SSSP") {
    val rows = Tables.table1(spark)
    val byName = rows.map(r => r.method -> r.tmam).toMap
    assert(byName("PPR").memory > byName("BFS").memory)
    assert(byName("DeepWalk").memory > byName("SSSP").memory)
  }

  test("table2 shape: Gen dominates static; compute-p(e) dominates Node2Vec; Init heavy for MetaPath") {
    val rows = Tables.table2(spark)
    val m = rows.map(r => r.method -> r).toMap
    assert(m("PPR").gen > 0.95)
    assert(m("DeepWalk").gen > 0.95)
    assert(m("Node2Vec").computeP > 0.5)
    assert(m("MetaPath").computeP + m("MetaPath").init > 0.6)
  }

  test("table5 lists the analogue stats for requested keys") {
    val rows = Tables.table5(spark, Seq("am", "lj"))
    assert(rows.map(_.key) == Seq("am", "lj"))
    assert(rows.forall(r => r.v > 0 && r.e > 0 && r.dMax >= r.dAvg))
  }

  test("table6 smoke (am, 2 apps): TRW beats BL everywhere; GW slowest on PPR") {
    val rows = Tables.table6(spark, keys = Seq("am"), apps = Seq("PPR", "DeepWalk"))
    def sec(sys: String, app: String) =
      rows.find(r => r.system == sys && r.app == app).get.seconds
    assert(sec("TRW", "PPR") < sec("BL", "PPR"))
    assert(sec("TRW", "DeepWalk") < sec("BL", "DeepWalk"))
    assert(sec("GW", "PPR") > sec("BL", "PPR"), "GW must be slower than even serial BL")
    assert(sec("KK", "PPR") > sec("HG", "PPR"))
  }

  test("tables 7/8/11/12 emit one row per parameter and interleaving lowers memory bound") {
    val t7 = Tables.table7(spark)
    val t11 = Tables.table11(spark)
    assert(t7.map(_.param) == Tables.Lengths.map(_.toLong))
    assert(t11.map(_.param) == Tables.Lengths.map(_.toLong))
    t7.zip(t11).foreach { case (wo, w) =>
      assert(w.tmam.memory < wo.tmam.memory, s"len=${wo.param}")
    }
    val t8 = Tables.table8(spark)
    val t12 = Tables.table12(spark)
    assert(t8.map(_.param) == Tables.Counts.map(_.toLong))
    assert(t12.map(_.param) == Tables.Counts.map(_.toLong))
  }

  test("table9 tuner returns power-of-two ring sizes quickly on a small graph") {
    val rows = Tables.table9(spark, Seq("am"), maxK = 64)
    val r = rows.head
    Seq(r.kNaive, r.kAlias, r.kIts, r.kRej, r.kOrej).foreach { k =>
      assert(k >= 1 && (k & (k - 1)) == 0)
    }
    assert(r.simSeconds > 0)
  }

  test("table10: L1 column is 1.0 and NTA never wins by much") {
    val rows = Tables.table10(spark)
    rows.foreach { r =>
      assert(r.l1 == 1.0)
      assert(r.nta < 1.15, s"${r.method} NTA=${r.nta}")
    }
  }

  test("table13: w/si cuts cycles/step; AMAC needs more instructions on cycle-stage samplers") {
    val rows = Tables.table13(spark)
    rows.foreach(r => assert(r.cyclesW < r.cyclesWo, s"${r.method}"))
    val m = rows.map(r => r.method -> r).toMap
    Seq("ITS", "REJ", "O-REJ").foreach { s =>
      assert(m(s).instrAmac > m(s).instrW, s"$s AMAC should cost more instructions")
    }
  }

  test("ring tuner picks a k > 1 on an LLC-exceeding graph") {
    val g = Experiments.graph(spark, "lj")
    val t = RingTuner.tune(g, Experiments.cfg, maxK = 128)
    assert(t.kAlias > 1, s"kAlias=${t.kAlias}")
    assert(t.kNaive > 1, s"kNaive=${t.kNaive}")
  }

  test("C.4 companion: interleaving also accelerates the KK paradigm emulation") {
    val am = Experiments.runCell(spark, Systems.KK, "DeepWalk", "am")
    val amSi = Experiments.runCell(spark, Systems.KKsi, "DeepWalk", "am")
    assert(amSi.execSeconds < am.execSeconds)
  }

  test("a scale that is not finite and positive fails early, naming its source") {
    for (bad <- Seq(0.0, -1.0, Double.NaN)) {
      Experiments.scaleOverride = Some(bad)
      val e = intercept[IllegalArgumentException](Experiments.scaled(100))
      assert(e.getMessage.contains(s"Experiments.scaleOverride = $bad"), e.getMessage)
      assert(e.getMessage.contains("finite positive"), e.getMessage)
    }
  }

  test("TableJob names every table once and rejects an unknown one, listing the valid names") {
    val names = Tables.runners.map(_._1)
    assert(names == Seq("1", "2", "5", "6", "7", "8", "9", "10", "11", "12", "13"))
    val e = intercept[IllegalArgumentException](repro.jobs.TableJob.main(Array("4", "lj")))
    assert(e.getMessage.contains("unknown table '4'"), e.getMessage)
    assert(e.getMessage.contains(names.mkString(", ")), e.getMessage)
  }
}
