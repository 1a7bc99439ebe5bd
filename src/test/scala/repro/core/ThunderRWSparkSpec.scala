package repro.core

import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.{GraphFixtures, Oracle, SparkSpec}
import repro.graph.CSRGraph
import repro.memsim.{MemConfig, SimStats}
import repro.sampling.{SamplingMethod, StaticTables}

/** End-to-end Spark runs: static id blocks per worker, equivalence with the
  * single-worker path, the cached graph broadcast, and DuckDB oracle checks
  * on walk-output DataFrame queries.
  */
class ThunderRWSparkSpec extends SparkSpec with GraphFixtures {

  private lazy val g = tinyGraph(n = 300, e = 2000, seed = 71L)
  private val cfg = MemConfig()

  private def randomSources(graph: CSRGraph, n: Int): Array[Int] = {
    val rng = new java.util.SplittableRandom(2L)
    Array.fill(n)(rng.nextInt(graph.numVertices))
  }

  private def sparkRun(n: Int, threads: Int, kind: EngineKind.Value = EngineKind.Interleaved,
                       graph: CSRGraph = g, memCfg: MemConfig = cfg) =
    ThunderRW.run(spark, graph, new Apps.DeepWalk(12), SamplingMethod.ALIAS, kind, n,
      randomSources(graph, n), threads = threads, cfg = memCfg)

  private def sameBits(a: SimStats, b: SimStats): Boolean = {
    def bits(s: SimStats) = Seq(s.cycles, s.computeCycles, s.memStallCycles, s.coreStallCycles,
      s.badSpecCycles, s.freqGhz).map(java.lang.Double.doubleToLongBits)
    bits(a) == bits(b) && a.instructions == b.instructions && a.dramLines == b.dramLines &&
      a.pipelineWidth == b.pipelineWidth && a.lineBytes == b.lineBytes
  }

  for ((n, threads) <- Seq((100, 1), (100, 3), (5, 8), (97, 10))) {
    test(s"worker t runs ids [t*n/threads, (t+1)*n/threads): n=$n threads=$threads") {
      val sum = sparkRun(n, threads)
      assert(sum.walks.map(_.id) == (0L until n.toLong), "walks not in ascending id order")
      val app = new Apps.DeepWalk(12)
      val t = StaticTables.build(g, app.walkerType, SamplingMethod.ALIAS)
      val src = randomSources(g, n)
      val blocks = (0 until threads).map(w => (w * n / threads, (w + 1) * n / threads))
        .filter { case (lo, hi) => hi > lo }
      assert(sum.parts.size == blocks.size, "an empty worker must give no PartResult")
      for (((lo, hi), part) <- blocks.zip(sum.parts)) {
        val walkers = ThunderRW.makeWalkers(lo until hi, src, seed = 2021L)
        val local = ThunderRW.runLocal(g, app, SamplingMethod.ALIAS, EngineKind.Interleaved, t,
          walkers, cfg)
        assert(sameBits(part.stats, local.stats), s"block [$lo, $hi): ${part.stats} != ${local.stats}")
        assert(part.steps == local.steps)
        assert(part.walks.map(_.path) == local.walks.map(_.toSeq).toSeq)
      }
    }
  }

  test("a run on a second graph does not reuse the first graph's broadcast") {
    val other = tinyGraph(n = 120, e = 700, seed = 72L)
    val a1 = sparkRun(60, threads = 3)
    val b = sparkRun(60, threads = 3, graph = other)
    val a2 = sparkRun(60, threads = 3)
    assert(a1 == a2)
    for (w <- b.walks; i <- 1 until w.path.size)
      assert(other.isNeighbor(w.path(i - 1), w.path(i)),
        s"walk ${w.id}: ${w.path(i - 1)}->${w.path(i)} is not an edge of the second graph")
  }

  test("invalid thread or query counts fail early") {
    val src = Array.fill(10)(1)
    val e1 = intercept[IllegalArgumentException](ThunderRW.run(spark, g, new Apps.DeepWalk(5),
      SamplingMethod.OREJ, EngineKind.Sequential, 10, src, threads = 0, cfg = cfg))
    assert(e1.getMessage.contains("threads must be at least 1"))
    val e2 = intercept[IllegalArgumentException](ThunderRW.run(spark, g, new Apps.DeepWalk(5),
      SamplingMethod.OREJ, EngineKind.Sequential, -1, src, threads = 2, cfg = cfg))
    assert(e2.getMessage.contains("nQueries must be non-negative"))
    val e3 = intercept[IllegalArgumentException](ThunderRW.run(spark, g, new Apps.DeepWalk(5),
      SamplingMethod.OREJ, EngineKind.Interleaved, 10, src, threads = 2, cfg = cfg, taskRing = 0))
    assert(e3.getMessage.contains("taskRing must be at least 1"))
    val e4 = intercept[IllegalArgumentException](ThunderRW.run(spark, g, new Apps.DeepWalk(5),
      SamplingMethod.OREJ, EngineKind.Sequential, 10, src, threads = 2, cfg = cfg.copy(mshrs = 0)))
    assert(e4.getMessage.contains("mshrs 0 must be at least 1"))
    val e5 = intercept[IllegalArgumentException](ThunderRW.run(spark, g, new Apps.DeepWalk(5),
      SamplingMethod.OREJ, EngineKind.Sequential, 12, src, threads = 2, cfg = cfg))
    assert(e5.getMessage.contains("need a source per query: 12 queries, 10 sources"), e5.getMessage)
    // A source outside [0, V) fails on the driver, not as a task failure.
    val V = g.numVertices
    for (bad <- Seq(V, -1)) {
      val s = src.clone(); s(7) = bad
      val e = intercept[IllegalArgumentException](ThunderRW.run(spark, g, new Apps.DeepWalk(5),
        SamplingMethod.OREJ, EngineKind.Sequential, 10, s, threads = 2, cfg = cfg))
      assert(e.getMessage.contains(s"query 7 starts at vertex $bad, outside [0, $V)"), e.getMessage)
      val walkers = ThunderRW.makeWalkers(0 until 10, s, seed = 2021L)
      val l = intercept[IllegalArgumentException](ThunderRW.runLocal(g, new Apps.DeepWalk(5),
        SamplingMethod.OREJ, EngineKind.Interleaved, null, walkers, cfg))
      assert(l.getMessage.contains(s"query 7 starts at vertex $bad, outside [0, $V)"), l.getMessage)
    }
    // Sources past nQueries are not read.
    ThunderRW.run(spark, g, new Apps.DeepWalk(5), SamplingMethod.OREJ, EngineKind.Sequential,
      9, src.updated(9, -1), threads = 2, cfg = cfg)
  }

  test("ten simulated workers run in one job of min(10, defaultParallelism) tasks") {
    val sc = spark.sparkContext
    val group = "thunderrw-task-count"
    sc.setJobGroup(group, "task count")
    try sparkRun(200, threads = 10)
    finally sc.clearJobGroup()
    val tracker = sc.statusTracker
    // The status store is fed by the listener bus, which lags the job.
    eventually(timeout(Span(10, Seconds))) {
      val jobs = tracker.getJobIdsForGroup(group).toSeq
      assert(jobs.size == 1, s"jobs in the group: $jobs")
      val job = tracker.getJobInfo(jobs.head).get
      assert(job.status == JobExecutionStatus.SUCCEEDED)
      assert(job.stageIds.length == 1)
      assert(tracker.getStageInfo(job.stageIds.head).get.numTasks ==
        math.min(10, sc.defaultParallelism))
    }
  }

  test("spark run returns one walk per query with correct sources") {
    val n = 200
    val sum = sparkRun(n, threads = 4)
    assert(sum.walks.size == n)
    assert(sum.walks.map(_.id).toSet == (0L until n.toLong).toSet)
    sum.walks.foreach(w => assert(w.path.head == w.source))
  }

  test("spark walks equal single-worker walks (partitioning is transparent)") {
    val n = 150
    val sum = sparkRun(n, threads = 5)
    val app = new Apps.DeepWalk(12)
    val src = randomSources(g, n)
    val t = StaticTables.build(g, app.walkerType, SamplingMethod.ALIAS)
    val walkers = ThunderRW.makeWalkers(0 until n, src, seed = 2021L)
    ThunderRW.runLocal(g, app, SamplingMethod.ALIAS, EngineKind.Interleaved, t, walkers, cfg)
    val local = walkers.map(w => w.id.toLong -> w.path.toSeq).toMap
    sum.walks.foreach(w => assert(w.path == local(w.id), s"walk ${w.id} differs"))
  }

  test("per-partition stats aggregate to the run totals") {
    val sum = sparkRun(100, threads = 4, memCfg = MemConfig(freqGhz = 3.0))
    assert(sum.steps == sum.walks.map(_.len.toLong).sum)
    assert(sum.stats.cycles > 0)
    assert(sum.stats.cycles == sum.parts.map(_.stats.cycles).sum)
    assert(sum.stats.freqGhz == 3.0, "totals lost the run's MemConfig")
    assert(sum.stats.seconds == sum.stats.cycles / 3e9)
    assert(sum.execSeconds <= sum.parts.map(_.stats.seconds).sum + 1e-9)
  }

  test("more threads reduce the makespan") {
    val one = sparkRun(400, threads = 1)
    val ten = sparkRun(400, threads = 10)
    assert(ten.execSeconds < one.execSeconds)
  }

  test("keepWalks=false drops paths but keeps stats") {
    val app = new Apps.DeepWalk(10)
    val src = Array.fill(50)(3)
    val sum = ThunderRW.run(spark, g, app, SamplingMethod.ALIAS, EngineKind.Sequential,
      50, src, threads = 2, cfg = cfg, keepWalks = false)
    assert(sum.walks.isEmpty && sum.steps > 0)
  }

  test("oracle: walk length histogram via Spark SQL equals DuckDB") {
    import spark.implicits._
    val sum = sparkRun(200, threads = 4)
    val walksDf = sum.walks.map(w => (w.id, w.source, w.len)).toDF("id", "source", "len").cache()
    val sparkHist = walksDf.groupBy($"len").agg(count(lit(1)) as "cnt")
      .select($"len".cast("string") as "len", $"cnt")
    Oracle.assertEquivalent(sparkHist,
      "SELECT len, COUNT(*) AS cnt FROM walks GROUP BY len", "walks" -> walksDf)
  }

  test("oracle: per-source walk counts via Spark SQL equal DuckDB") {
    import spark.implicits._
    val sum = sparkRun(200, threads = 4)
    val walksDf = sum.walks.map(w => (w.id, w.source, w.len)).toDF("id", "source", "len").cache()
    val sparkCnt = walksDf.groupBy($"source").agg(count(lit(1)) as "cnt", max($"len") as "max_len")
      .select($"source".cast("string") as "source", $"cnt", $"max_len".cast("long") as "max_len")
    Oracle.assertEquivalent(sparkCnt,
      "SELECT source, COUNT(*) AS cnt, MAX(CAST(len AS BIGINT)) AS max_len FROM walks GROUP BY source",
      "walks" -> walksDf)
  }

  test("oracle: vertex visit frequencies from exploded steps equal DuckDB") {
    import spark.implicits._
    val sum = sparkRun(150, threads = 4)
    val steps = ThunderRW.walksToSteps(spark, sum.walks).toDF().cache()
    val sparkTop = steps.groupBy($"vertex").agg(count(lit(1)) as "visits")
      .select($"vertex".cast("string") as "vertex", $"visits")
    Oracle.assertEquivalent(sparkTop,
      "SELECT vertex, COUNT(*) AS visits FROM steps GROUP BY vertex", "steps" -> steps)
  }

  test("walksToSteps emits path-length rows per walk") {
    val sum = sparkRun(20, threads = 2)
    val steps = ThunderRW.walksToSteps(spark, sum.walks)
    assert(steps.count() == sum.walks.map(_.path.size.toLong).sum)
  }

  test("preprocessing seconds are reported for static sampling and zero for O-REJ") {
    val app = new Apps.DeepWalk(5)
    val src = Array.fill(30)(1)
    val withTables = ThunderRW.run(spark, g, app, SamplingMethod.ALIAS,
      EngineKind.Sequential, 30, src, threads = 2, cfg = cfg)
    val noTables = ThunderRW.run(spark, g, app, SamplingMethod.OREJ,
      EngineKind.Sequential, 30, src, threads = 2, cfg = cfg)
    assert(withTables.preprocSeconds > 0)
    assert(noTables.preprocSeconds == 0.0)
  }
}
