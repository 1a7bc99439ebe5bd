package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.GraphGen
import repro.memsim.{MemSim, PrefetchHint, SimStats, Tmam}
import repro.sampling.SamplingMethod
import repro.systems.{GraphAlgos, Systems}

/** One runner per reproduced paper table. Each returns structured rows
  * (asserted by the bench suites) and prints the table.
  */
object Tables {
  import Experiments._

  val ProfileGraph = "lj" // the paper's representative graph
  val Threads: Int = Systems.Threads

  // ---- Table 1: pipeline slots + bandwidth, RW vs BFS/SSSP ---------------
  final case class BreakdownRow(method: String, tmam: Tmam, bandwidthGBs: Double,
                                cyclesPerStep: Double, instrPerStep: Double)

  def table1(spark: SparkSession): Seq[BreakdownRow] = {
    val g = graph(spark, ProfileGraph)
    val hub = hubVertex(g)
    val nRW = math.max(16, (3000 * scale).toInt)

    val bfsStats = GraphAlgos.bfsStats(g, hub, cfg)
    val ssspStats = GraphAlgos.ssspStats(g, hub, cfg)

    // §3 profiling configs: BL-style samplers, sequential engine.
    val rw = Seq(
      ("PPR", SamplingMethod.NAIVE),
      ("DeepWalk", SamplingMethod.ALIAS),
      ("Node2Vec", SamplingMethod.ALIAS),
      ("MetaPath", SamplingMethod.ALIAS),
    ).map { case (app, m) =>
      val (s, steps, _) = profileRun(g, app, m, EngineKind.Sequential, nRW)
      BreakdownRow(app, s.tmam, s.bandwidthGBs(Threads),
        s.cycles / math.max(1, steps), s.instructions.toDouble / math.max(1, steps))
    }
    val rows =
      BreakdownRow("BFS", bfsStats.tmam, bfsStats.bandwidthGBs(Threads), 0, 0) +:
      BreakdownRow("SSSP", ssspStats.tmam, ssspStats.bandwidthGBs(Threads), 0, 0) +:
      rw
    print1(rows, "Table 1: pipeline slot breakdown and memory bandwidth")
    rows
  }

  private def print1(rows: Seq[BreakdownRow], title: String): Unit = {
    println(s"\n== $title ==")
    println(Tmam.header + f"  ${"BW GB/s"}%8s")
    rows.foreach(r => println(r.tmam.row(r.method) + f"  ${r.bandwidthGBs}%8.1f"))
  }

  // ---- Table 2: per-step time breakdown ----------------------------------
  final case class Table2Row(method: String, computeP: Double, init: Double, gen: Double)

  def table2(spark: SparkSession): Seq[Table2Row] = {
    val g = graph(spark, ProfileGraph)
    val n = math.max(16, (2000 * scale).toInt)
    val rows = Seq(
      ("PPR", SamplingMethod.NAIVE),
      ("DeepWalk", SamplingMethod.ALIAS),
      ("Node2Vec", SamplingMethod.ALIAS),
      ("MetaPath", SamplingMethod.ALIAS),
    ).map { case (app, m) =>
      val (_, _, ph) = profileRun(g, app, m, EngineKind.Sequential, n)
      // Normalise over the sampling-related phases, as in the paper.
      val t = ph.computeP + ph.init + ph.gen
      if (t <= 0) Table2Row(app, 0, 0, 0)
      else Table2Row(app, ph.computeP / t, ph.init / t, ph.gen / t)
    }
    println("\n== Table 2: execution time breakdown per step ==")
    println(f"${"Method"}%-10s ${"p(e)"}%7s ${"Init"}%7s ${"Gen"}%7s")
    rows.foreach(r => println(
      f"${r.method}%-10s ${r.computeP * 100}%6.1f%% ${r.init * 100}%6.1f%% ${r.gen * 100}%6.1f%%"))
    rows
  }

  // ---- Table 5: dataset properties ---------------------------------------
  final case class Table5Row(key: String, name: String, v: Int, e: Int,
                             dAvg: Double, dMax: Int, memoryMB: Double, scale: Int)

  def table5(spark: SparkSession, keys: Seq[String] = GraphGen.datasets.map(_.key)): Seq[Table5Row] = {
    val rows = keys.map { k =>
      val s = GraphGen.spec(k)
      val g = graph(spark, k)
      Table5Row(k, s.fullName, g.numVertices, g.numEdges, g.avgDegree, g.maxDegree,
        g.memoryBytes / 1e6, s.scale)
    }
    println("\n== Table 5: dataset analogues ==")
    println(f"${"key"}%-4s ${"name"}%-16s ${"|V|"}%9s ${"|E|"}%10s ${"d_avg"}%7s ${"d_max"}%8s ${"MB"}%7s ${"1/scale"}%7s")
    rows.foreach(r => println(
      f"${r.key}%-4s ${r.name}%-16s ${r.v}%9d ${r.e}%10d ${r.dAvg}%7.2f ${r.dMax}%8d ${r.memoryMB}%7.1f ${r.scale}%7d"))
    rows
  }

  // ---- Table 6: overall comparison ---------------------------------------
  final case class Table6Row(dataset: String, app: String, system: String,
                             seconds: Double, preprocSeconds: Double, steps: Long)

  def table6(spark: SparkSession,
             keys: Seq[String] = GraphGen.datasets.map(_.key),
             apps: Seq[String] = Seq("PPR", "DeepWalk", "Node2Vec", "MetaPath"),
             systems: Seq[repro.systems.SystemSpec] = Systems.all): Seq[Table6Row] = {
    val rows = for {
      key <- keys
      app <- apps
      sys <- systems if sys.supports(app)
    } yield {
      val c = runCell(spark, sys, app, key)
      Table6Row(key, app, sys.name, c.totalSeconds, c.preprocSeconds, c.steps)
    }
    println("\n== Table 6: overall performance comparison (simulated seconds) ==")
    for (app <- apps) {
      val present = systems.filter(_.supports(app)).map(_.name)
      println(s"-- $app --")
      println(f"${"ds"}%-4s" + present.map(s => f"$s%12s").mkString)
      for (key <- keys) {
        val cells = present.map { s =>
          rows.find(r => r.dataset == key && r.app == app && r.system == s)
            .map(r => f"${r.seconds}%12.4f").getOrElse(f"${"-"}%12s")
        }
        println(f"$key%-4s" + cells.mkString)
      }
    }
    rows
  }

  // ---- Tables 7/8/11/12: breakdown vs length / #queries ------------------
  final case class VaryRow(param: Long, tmam: Tmam, bandwidthGBs: Double)

  val Lengths: Seq[Int] = Seq(5, 10, 20, 40, 80, 160)
  val Counts: Seq[Int] = Seq(100, 1000, 3000, 10000, 30000)

  private def varyLength(spark: SparkSession, kind: EngineKind.Value): Seq[VaryRow] = {
    val g = graph(spark, ProfileGraph)
    Lengths.map { len =>
      val n = math.max(16, (3000 * scale).toInt)
      val (s, _, _) = profileRun(g, "DeepWalk", SamplingMethod.ALIAS, kind, n, length = len)
      VaryRow(len.toLong, s.tmam, s.bandwidthGBs(Threads))
    }
  }

  private def varyCount(spark: SparkSession, kind: EngineKind.Value): Seq[VaryRow] = {
    val g = graph(spark, ProfileGraph)
    Counts.map { n0 =>
      val n = math.max(16, (n0 * scale).toInt)
      val (s, _, _) = profileRun(g, "DeepWalk", SamplingMethod.ALIAS, kind, n)
      VaryRow(n0.toLong, s.tmam, s.bandwidthGBs(Threads))
    }
  }

  private def printVary(rows: Seq[VaryRow], title: String): Seq[VaryRow] = {
    println(s"\n== $title ==")
    println(Tmam.header + f"  ${"BW GB/s"}%8s")
    rows.foreach(r => println(r.tmam.row(r.param.toString) + f"  ${r.bandwidthGBs}%8.1f"))
    rows
  }

  def table7(spark: SparkSession): Seq[VaryRow] =
    printVary(varyLength(spark, EngineKind.Sequential), "Table 7: wo/si, length varying")
  def table8(spark: SparkSession): Seq[VaryRow] =
    printVary(varyCount(spark, EngineKind.Sequential), "Table 8: wo/si, #queries varying")
  def table11(spark: SparkSession): Seq[VaryRow] =
    printVary(varyLength(spark, EngineKind.Interleaved), "Table 11: w/si, length varying")
  def table12(spark: SparkSession): Seq[VaryRow] =
    printVary(varyCount(spark, EngineKind.Interleaved), "Table 12: w/si, #queries varying")

  // ---- Table 9: ring tuning time -----------------------------------------
  final case class Table9Row(dataset: String, simSeconds: Double, wallSeconds: Double,
                             kNaive: Int, kAlias: Int, kIts: Int, kRej: Int, kOrej: Int)

  def table9(spark: SparkSession, keys: Seq[String] = GraphGen.datasets.map(_.key),
             maxK: Int = 256): Seq[Table9Row] = {
    val rows = keys.map { k =>
      val g = graph(spark, k)
      val t = RingTuner.tune(g, cfg, maxK)
      Table9Row(k, t.simulatedSeconds, t.wallSeconds,
        t.kNaive, t.kAlias, t.kIts, t.kRej, t.kOrej)
    }
    println("\n== Table 9: ring-size tuning (simulated seconds) ==")
    println(f"${"ds"}%-4s ${"sim s"}%9s ${"wall s"}%9s ${"kN"}%5s ${"kA"}%5s ${"kI"}%5s ${"kR"}%5s ${"kO"}%5s")
    rows.foreach(r => println(
      f"${r.dataset}%-4s ${r.simSeconds}%9.3f ${r.wallSeconds}%9.2f ${r.kNaive}%5d ${r.kAlias}%5d ${r.kIts}%5d ${r.kRej}%5d ${r.kOrej}%5d"))
    rows
  }

  // ---- Table 10: prefetch target cache level -----------------------------
  final case class Table10Row(method: String, l1: Double, l2: Double, l3: Double, nta: Double)

  def table10(spark: SparkSession): Seq[Table10Row] = {
    val g = graph(spark, ProfileGraph)
    val n = math.max(16, (2000 * scale).toInt)
    val methods = Seq(
      ("NAIVE", "DeepWalk-unbiased", SamplingMethod.NAIVE),
      ("ITS", "DeepWalk", SamplingMethod.ITS),
      ("ALIAS", "DeepWalk", SamplingMethod.ALIAS),
      ("REJ", "DeepWalk", SamplingMethod.REJ),
      ("O-REJ", "DeepWalk", SamplingMethod.OREJ),
    )
    val rows = methods.map { case (label, app, m) =>
      def sec(h: PrefetchHint.Value): Double = {
        val gph = graph(spark, ProfileGraph)
        val (tables, _) = ThunderRW.preprocess(gph, Experiments.makeApp(app, gph), m, cfg, charge = false)
        val src = sources("x", gph, n)
        val walkers = ThunderRW.makeWalkers(0 until n, src, seed = 2021L)
        val res = ThunderRW.runLocal(gph, Experiments.makeApp(app, gph), m,
          EngineKind.Interleaved, tables, walkers, cfg, 64, h)
        res.stats.seconds
      }
      val base = sec(PrefetchHint.T0)
      Table10Row(label, 1.0, base / sec(PrefetchHint.T1), base / sec(PrefetchHint.T2),
        base / sec(PrefetchHint.NTA))
    }
    println("\n== Table 10: prefetch target level (speedup vs L1) ==")
    println(f"${"Method"}%-7s ${"L1"}%6s ${"L2"}%6s ${"L3"}%6s ${"NTA"}%6s")
    rows.foreach(r => println(f"${r.method}%-7s ${r.l1}%6.2f ${r.l2}%6.2f ${r.l3}%6.2f ${r.nta}%6.2f"))
    rows
  }

  // ---- Table 13: instructions / cycles per step, wo/si vs w/si vs AMAC ---
  final case class Table13Row(method: String,
                              instrWo: Double, instrW: Double, instrAmac: Double,
                              cyclesWo: Double, cyclesW: Double, cyclesAmac: Double)

  def table13(spark: SparkSession): Seq[Table13Row] = {
    val g = graph(spark, ProfileGraph)
    val n = math.max(16, (3000 * scale).toInt)
    val methods = Seq(
      ("NAIVE", "DeepWalk-unbiased", SamplingMethod.NAIVE),
      ("ITS", "DeepWalk", SamplingMethod.ITS),
      ("ALIAS", "DeepWalk", SamplingMethod.ALIAS),
      ("REJ", "DeepWalk", SamplingMethod.REJ),
      ("O-REJ", "DeepWalk", SamplingMethod.OREJ),
    )
    val rows = methods.map { case (label, app, m) =>
      def perStep(kind: EngineKind.Value): (Double, Double) = {
        val (s, steps, _) = profileRun(g, app, m, kind, n)
        (s.instructions.toDouble / math.max(1, steps), s.cycles / math.max(1, steps))
      }
      val (iWo, cWo) = perStep(EngineKind.Sequential)
      val (iW, cW) = perStep(EngineKind.Interleaved)
      val (iA, cA) = perStep(EngineKind.Amac)
      Table13Row(label, iWo, iW, iA, cWo, cW, cA)
    }
    println("\n== Table 13: instructions and cycles per step ==")
    println(f"${"Method"}%-7s ${"I wo/si"}%9s ${"I w/si"}%9s ${"I AMAC"}%9s ${"C wo/si"}%9s ${"C w/si"}%9s ${"C AMAC"}%9s")
    rows.foreach(r => println(
      f"${r.method}%-7s ${r.instrWo}%9.1f ${r.instrW}%9.1f ${r.instrAmac}%9.1f ${r.cyclesWo}%9.1f ${r.cyclesW}%9.1f ${r.cyclesAmac}%9.1f"))
    rows
  }
}
