package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{CSRGraph, GraphGen}
import repro.memsim.{MemConfig, PrefetchHint}
import repro.sampling.{SamplingMethod, StaticTables}
import repro.systems.SystemSpec

/** Shared experiment harness: dataset cache, workload construction and the
  * (system × app × dataset) cell runner used by every table.
  */
object Experiments {

  val cfg: MemConfig = MemConfig()

  /** Global workload scale knob: REPRO_SCALE=0.1 shrinks query counts 10x;
    * tests set `scaleOverride` instead. Benches run at 1.0. Either source
    * must give a finite positive scale.
    */
  @volatile var scaleOverride: Option[Double] = None
  def scale: Double = scaleOverride match {
    case Some(s) => positiveScale(s, s"Experiments.scaleOverride = $s")
    case None => sys.env.get("REPRO_SCALE").fold(1.0)(v =>
      positiveScale(v.toDoubleOption.getOrElse(Double.NaN), s"REPRO_SCALE=$v"))
  }

  private def positiveScale(s: Double, source: String): Double = {
    require(s > 0 && !s.isInfinite, s"$source: the scale must be a finite positive number")
    s
  }

  /** A paper query count `x` at the current scale, never below 16. */
  def scaled(x: Int): Int = math.max(16, (x * scale).toInt)

  private val cache = scala.collection.mutable.Map.empty[String, CSRGraph]

  def graph(spark: SparkSession, key: String): CSRGraph = synchronized {
    cache.getOrElseUpdate(key, GraphGen.build(spark, key))
  }

  /** Highest-degree vertex: the paper's "given vertex" for PPR / the BFS
    * and SSSP source.
    */
  def hubVertex(g: CSRGraph): Int = {
    var best = 0; var bd = -1; var v = 0
    while (v < g.numVertices) { val d = g.degree(v); if (d > bd) { bd = d; best = v }; v += 1 }
    best
  }

  /** App factory for every table, including the unbiased DeepWalk
    * profiling variant; `length` is the target walk length.
    */
  def makeApp(name: String, g: CSRGraph, length: Int = 80): RandomWalkApp = name match {
    case "PPR"               => new Apps.PPR(0.2)
    case "DeepWalk"          => new Apps.DeepWalk(length)
    case "DeepWalk-unbiased" => new Apps.DeepWalkUnbiased(length)
    case "Node2Vec"          => new Apps.Node2Vec(2.0, 0.5, length)
    case "MetaPath"          => Apps.metaPathFor(g.labels.max + 1, len = 5, targetLength = length)
    case other => sys.error(s"unknown app $other")
  }

  /** Query count per cell, scaled from the paper's 1-query-per-vertex /
    * |V|-queries-from-source setup to simulator-friendly sizes.
    */
  def nQueries(app: String, dataset: String, g: CSRGraph): Int = {
    val base = app match {
      case "PPR" => math.min(g.numVertices, 4000)
      case "MetaPath" if dataset == "tw" || dataset == "fs" => 120 // hub gathers dominate
      case "Node2Vec" | "MetaPath" => math.min(g.numVertices, 400) // per-step gather cells
      case _ => math.min(g.numVertices, 1200)
    }
    scaled(base)
  }

  /** Source vertex per query id: PPR is single-source; the others start
    * from random vertices across the graph, drawn with seed 5.
    */
  def sources(app: String, g: CSRGraph, n: Int): Array[Int] =
    if (app == "PPR") { val hub = hubVertex(g); Array.fill(n)(hub) }
    else {
      val rng = new java.util.SplittableRandom(5L)
      Array.fill(n)(rng.nextInt(g.numVertices))
    }

  /** Run one Table 6 cell. */
  def runCell(spark: SparkSession, sys: SystemSpec, appName: String,
              dataset: String): RunSummary = {
    val g = graph(spark, dataset)
    val n = nQueries(appName, dataset, g)
    ThunderRW.run(spark, g, makeApp(appName, g), sys.samplingFor(appName), sys.kind,
      n, sources(appName, g, n), threads = sys.threads, cfg = cfg,
      overhead = sys.overhead, keepWalks = false)
  }

  /** Single-worker run (no Spark) of `n` walks of `appName` from its
    * sources: the one run path of the profiling tables (1, 2, 7, 8, 10–13).
    */
  def profileRun(g: CSRGraph, appName: String, sampling: SamplingMethod.Value,
                 kind: EngineKind.Value, n: Int, length: Int = 80,
                 hint: PrefetchHint.Value = PrefetchHint.T0): EngineResult = {
    val app = makeApp(appName, g, length)
    val tables = StaticTables.build(g, app.walkerType, sampling)
    val walkers = ThunderRW.makeWalkers(0 until n, sources(appName, g, n), seed = 2021L)
    ThunderRW.runLocal(g, app, sampling, kind, tables, walkers, cfg, hint = hint)
  }
}
