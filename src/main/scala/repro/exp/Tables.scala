package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.GraphGen
import repro.memsim.{PrefetchHint, Tmam}
import repro.sampling.SamplingMethod
import repro.systems.{GraphAlgos, Systems}

/** One runner per reproduced paper table. Each returns structured rows
  * (asserted by the bench suites) and prints the table.
  */
object Tables {
  import Experiments._

  val ProfileGraph = "lj" // the paper's representative graph
  val Threads: Int = Systems.Threads

  // §3 profiling configs (Tables 1 and 2): BL-style samplers.
  private val ProfileApps = Seq(
    ("PPR", SamplingMethod.NAIVE),
    ("DeepWalk", SamplingMethod.ALIAS),
    ("Node2Vec", SamplingMethod.ALIAS),
    ("MetaPath", SamplingMethod.ALIAS),
  )

  // One (label, app, sampler) row per sampling method (Tables 10 and 13).
  private val SamplerRows = Seq(
    ("NAIVE", "DeepWalk-unbiased", SamplingMethod.NAIVE),
    ("ITS", "DeepWalk", SamplingMethod.ITS),
    ("ALIAS", "DeepWalk", SamplingMethod.ALIAS),
    ("REJ", "DeepWalk", SamplingMethod.REJ),
    ("O-REJ", "DeepWalk", SamplingMethod.OREJ),
  )

  /** (instructions, cycles) per step of a run. */
  private def perStep(r: EngineResult): (Double, Double) = {
    val steps = math.max(1L, r.steps)
    (r.stats.instructions.toDouble / steps, r.stats.cycles / steps)
  }

  /** A TMAM table with a bandwidth column: one (label, tmam, GB/s) per row. */
  private def printTmam(title: String, rows: Seq[(String, Tmam, Double)]): Unit = {
    println(s"\n== $title ==")
    println(Tmam.header + f"  ${"BW GB/s"}%8s")
    rows.foreach { case (label, tmam, bw) => println(tmam.row(label) + f"  $bw%8.1f") }
  }

  // ---- Table 1: pipeline slots + bandwidth, RW vs BFS/SSSP ---------------
  final case class BreakdownRow(method: String, tmam: Tmam, bandwidthGBs: Double,
                                cyclesPerStep: Double, instrPerStep: Double)

  def table1(spark: SparkSession): Seq[BreakdownRow] = {
    val g = graph(spark, ProfileGraph)
    val hub = hubVertex(g)
    val nRW = scaled(3000)

    val bfsStats = GraphAlgos.bfsStats(g, hub, cfg)
    val ssspStats = GraphAlgos.ssspStats(g, hub, cfg)

    val rw = ProfileApps.map { case (app, m) =>
      val r = profileRun(g, app, m, EngineKind.Sequential, nRW)
      val (instr, cycles) = perStep(r)
      BreakdownRow(app, r.stats.tmam, r.stats.bandwidthGBs(Threads), cycles, instr)
    }
    val rows =
      BreakdownRow("BFS", bfsStats.tmam, bfsStats.bandwidthGBs(Threads), 0, 0) +:
      BreakdownRow("SSSP", ssspStats.tmam, ssspStats.bandwidthGBs(Threads), 0, 0) +:
      rw
    printTmam("Table 1: pipeline slot breakdown and memory bandwidth",
      rows.map(r => (r.method, r.tmam, r.bandwidthGBs)))
    rows
  }

  // ---- Table 2: per-step time breakdown ----------------------------------
  final case class Table2Row(method: String, computeP: Double, init: Double, gen: Double)

  def table2(spark: SparkSession): Seq[Table2Row] = {
    val g = graph(spark, ProfileGraph)
    val n = scaled(2000)
    val rows = ProfileApps.map { case (app, m) =>
      val ph = profileRun(g, app, m, EngineKind.Sequential, n).phases
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

  def table5(spark: SparkSession, keys: Seq[String] = GraphGen.keys): Seq[Table5Row] = {
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

  def table6(spark: SparkSession, keys: Seq[String] = GraphGen.keys,
             apps: Seq[String] = Seq("PPR", "DeepWalk", "Node2Vec", "MetaPath")): Seq[Table6Row] = {
    val systems = Systems.all
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

  /** DeepWalk/ALIAS TMAM rows, one per (param, n, length) run. */
  private def vary(spark: SparkSession, kind: EngineKind.Value, title: String,
                   runs: Seq[(Int, Int, Int)]): Seq[VaryRow] = {
    val g = graph(spark, ProfileGraph)
    val rows = runs.map { case (param, n, len) =>
      val s = profileRun(g, "DeepWalk", SamplingMethod.ALIAS, kind, n, length = len).stats
      VaryRow(param.toLong, s.tmam, s.bandwidthGBs(Threads))
    }
    printTmam(title, rows.map(r => (r.param.toString, r.tmam, r.bandwidthGBs)))
    rows
  }

  private def byLength: Seq[(Int, Int, Int)] = Lengths.map(len => (len, scaled(3000), len))
  private def byCount: Seq[(Int, Int, Int)] = Counts.map(n => (n, scaled(n), 80))

  def table7(spark: SparkSession): Seq[VaryRow] =
    vary(spark, EngineKind.Sequential, "Table 7: wo/si, length varying", byLength)
  def table8(spark: SparkSession): Seq[VaryRow] =
    vary(spark, EngineKind.Sequential, "Table 8: wo/si, #queries varying", byCount)
  def table11(spark: SparkSession): Seq[VaryRow] =
    vary(spark, EngineKind.Interleaved, "Table 11: w/si, length varying", byLength)
  def table12(spark: SparkSession): Seq[VaryRow] =
    vary(spark, EngineKind.Interleaved, "Table 12: w/si, #queries varying", byCount)

  // ---- Table 9: ring tuning time -----------------------------------------
  final case class Table9Row(dataset: String, simSeconds: Double, wallSeconds: Double,
                             kNaive: Int, kAlias: Int, kIts: Int, kRej: Int, kOrej: Int)

  def table9(spark: SparkSession, keys: Seq[String] = GraphGen.keys,
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
    val n = scaled(2000)
    val rows = SamplerRows.map { case (label, app, m) =>
      def sec(h: PrefetchHint.Value): Double =
        profileRun(g, app, m, EngineKind.Interleaved, n, hint = h).stats.seconds
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
    val n = scaled(3000)
    val rows = SamplerRows.map { case (label, app, m) =>
      def run(kind: EngineKind.Value) = perStep(profileRun(g, app, m, kind, n))
      val (iWo, cWo) = run(EngineKind.Sequential)
      val (iW, cW) = run(EngineKind.Interleaved)
      val (iA, cA) = run(EngineKind.Amac)
      Table13Row(label, iWo, iW, iA, cWo, cW, cA)
    }
    println("\n== Table 13: instructions and cycles per step ==")
    println(f"${"Method"}%-7s ${"I wo/si"}%9s ${"I w/si"}%9s ${"I AMAC"}%9s ${"C wo/si"}%9s ${"C w/si"}%9s ${"C AMAC"}%9s")
    rows.foreach(r => println(
      f"${r.method}%-7s ${r.instrWo}%9.1f ${r.instrW}%9.1f ${r.instrAmac}%9.1f ${r.cyclesWo}%9.1f ${r.cyclesW}%9.1f ${r.cyclesAmac}%9.1f"))
    rows
  }

  /** Every table runner by name, in the paper's order. A runner takes the
    * dataset keys, which only Tables 5, 6 and 9 read.
    */
  val runners: Seq[(String, (SparkSession, Seq[String]) => Unit)] = Seq(
    "1" -> ((s, _) => table1(s)), "2" -> ((s, _) => table2(s)),
    "5" -> ((s, k) => table5(s, k)), "6" -> ((s, k) => table6(s, k)),
    "7" -> ((s, _) => table7(s)), "8" -> ((s, _) => table8(s)),
    "9" -> ((s, k) => table9(s, k)), "10" -> ((s, _) => table10(s)),
    "11" -> ((s, _) => table11(s)), "12" -> ((s, _) => table12(s)),
    "13" -> ((s, _) => table13(s)),
  )
}
