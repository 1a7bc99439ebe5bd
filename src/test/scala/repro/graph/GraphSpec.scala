package repro.graph

import org.apache.spark.sql.functions._
import repro.{GraphFixtures, Oracle, SparkSpec}
import repro.memsim.SimLayout

class GraphSpec extends SparkSpec with GraphFixtures {

  test("CSR offsets are monotone and cover all edges") {
    val g = tinyGraph()
    assert(g.offsets.head == 0)
    assert(g.offsets.last == g.numEdges)
    g.offsets.sliding(2).foreach(p => assert(p(0) <= p(1)))
  }

  test("undirected build doubles the edge count") {
    val df = tinyEdges(n = 50, e = 200)
    val g = GraphBuilder.fromEdges(df, 50, "t", undirect = true)
    assert(g.numEdges == 400)
  }

  test("directed build preserves the edge count") {
    val df = tinyEdges(n = 50, e = 200)
    val g = GraphBuilder.fromEdges(df, 50, "t", undirect = false)
    assert(g.numEdges == 200)
  }

  test("adjacency lists are sorted by neighbor id") {
    val g = tinyGraph()
    (0 until g.numVertices).foreach { v =>
      val base = g.edgeBegin(v)
      (1 until g.degree(v)).foreach(i => assert(g.neighbor(base + i - 1) <= g.neighbor(base + i)))
    }
  }

  test("weights and labels travel with their edge through the sort") {
    val g = explicitGraph(4, Seq((0, 3, 3.5f, 2), (0, 1, 1.5f, 1), (0, 2, 2.5f, 0)))
    assert(g.degree(0) == 3)
    val base = g.edgeBegin(0)
    assert((0 until 3).map(i => g.neighbor(base + i)) == Seq(1, 2, 3))
    assert((0 until 3).map(i => g.weight(base + i)) == Seq(1.5f, 2.5f, 3.5f))
    assert((0 until 3).map(i => g.label(base + i)) == Seq(1, 0, 2))

    // A hub (degree > 64) whose 20 destinations repeat 5 times each: ties
    // keep input order, and each weight and label stays with its edge.
    val hub = (0 until 100).map(k => (1, 2 + (k * 7) % 20, 1f + k / 100f, k))
    val h = explicitGraph(22, hub)
    val hb = h.edgeBegin(1)
    assert(h.degree(1) == 100)
    assert((0 until 100).map(i => (1, h.neighbor(hb + i), h.weight(hb + i), h.label(hb + i))) ==
      hub.sortBy(_._2))
  }

  test("undirected build stores the reverse edge with same weight and label") {
    val g = explicitGraph(3, Seq((0, 1, 2.0f, 4)), undirect = true)
    assert(g.degree(0) == 1 && g.degree(1) == 1)
    assert(g.neighbor(g.edgeBegin(1)) == 0)
    assert(g.weight(g.edgeBegin(1)) == 2.0f)
    assert(g.label(g.edgeBegin(1)) == 4)
  }

  test("isNeighbor finds present and absent neighbors") {
    val g = explicitGraph(6, Seq((0, 1, 1f, 0), (0, 3, 1f, 0), (0, 5, 1f, 0)))
    assert(g.isNeighbor(0, 3))
    assert(g.isNeighbor(0, 1))
    assert(g.isNeighbor(0, 5))
    assert(!g.isNeighbor(0, 2))
    assert(!g.isNeighbor(0, 0))
    // probe count bounded by ceil(log2(d)) + 1
    val probes = scala.collection.mutable.ArrayBuffer.empty[Int]
    assert(!g.isNeighbor(0, 2, e => probes += e))
    assert(probes.length <= 3)
    // probes are binary-search midpoints over v's edge range
    assert(probes.toSeq == Seq(1, 0))
  }

  test("degree/maxDegree/avgDegree/memoryBytes are consistent") {
    val g = tinyGraph(n = 80, e = 400)
    assert((0 until g.numVertices).map(g.degree).sum == g.numEdges)
    assert(g.maxDegree == (0 until g.numVertices).map(g.degree).max)
    assert(math.abs(g.avgDegree - g.numEdges.toDouble / g.numVertices) < 1e-9)
    assert(g.memoryBytes == 4L * (g.offsets.length + 3 * g.numEdges))
  }

  test("simulated address regions are disjoint") {
    val regions = SimLayout.regions
    assert(regions.map(_.base).distinct.size == regions.size, regions.map(_.name))
    regions.foreach { r =>
      assert(r.base % (1L << 40) == 0, s"${r.name} base ${r.base} is not 1 TB-aligned")
      assert(r.at(0) == r.base, s"${r.name} index 0 maps to ${r.at(0)}, not its base ${r.base}")
      assert((r.at(Int.MaxValue) >> 40) == (r.base >> 40), s"${r.name} runs past its 1 TB region")
    }
  }

  test("oracle: CSR degree histogram matches DuckDB over the edge list") {
    val df = tinyEdges(n = 60, e = 300, seed = 5L).cache()
    val g = GraphBuilder.fromEdges(df, 60, "t", undirect = false)
    import spark.implicits._
    val csrDeg = (0 until g.numVertices).map(v => (v, g.degree(v)))
      .toDF("src", "degree").where($"degree" > 0)
      .select($"src".cast("string") as "src", $"degree".cast("long") as "degree")
    Oracle.assertEquivalent(csrDeg,
      "SELECT src, COUNT(*) AS degree FROM edges GROUP BY src", "edges" -> df)
  }

  test("oracle: label histogram of CSR equals DuckDB label histogram (doubled)") {
    val df = tinyEdges(n = 60, e = 300, seed = 6L).cache()
    val g = GraphBuilder.fromEdges(df, 60, "t", undirect = true)
    import spark.implicits._
    val csrLabels = g.labels.toSeq.groupBy(identity).map { case (l, xs) => (l.toString, xs.size.toLong) }
      .toSeq.toDF("label", "cnt")
    Oracle.assertEquivalent(csrLabels,
      "SELECT label, 2 * COUNT(*) AS cnt FROM edges GROUP BY label", "edges" -> df)
  }

  test("oracle: total weight mass of CSR equals DuckDB sum (doubled, rounded)") {
    val df = tinyEdges(n = 40, e = 150, seed = 7L).cache()
    val g = GraphBuilder.fromEdges(df, 40, "t", undirect = true)
    import spark.implicits._
    val total = Seq(math.round(g.weights.map(_.toDouble).sum).toDouble).toDF("w")
    Oracle.assertEquivalent(total,
      "SELECT ROUND(2 * SUM(CAST(weight AS DOUBLE))) AS w FROM edges", "edges" -> df)
  }

  test("builder rejects out-of-range vertices") {
    import spark.implicits._
    val df = Seq((0, 99, 1.0f, 0)).toDF("src", "dst", "weight", "label")
    intercept[IllegalArgumentException](GraphBuilder.fromEdges(df, 10, "bad"))
  }

  test("builder and CSRGraph require a weight and a label per edge") {
    import spark.implicits._
    val bare = intercept[IllegalArgumentException](
      GraphBuilder.fromEdges(Seq((0, 1)).toDF("src", "dst"), 2, "bare"))
    assert(bare.getMessage.contains("(src, dst, weight, label)"), bare.getMessage)
    assert(bare.getMessage.contains("missing weight, label"), bare.getMessage)
    def csr(ws: Int, ls: Int) =
      new CSRGraph("csr", 2, Array(0, 1, 1), Array(1), new Array[Float](ws), new Array[Int](ls))
    val noW = intercept[IllegalArgumentException](csr(0, 1))
    assert(noW.getMessage.contains("weights (0)"), noW.getMessage)
    val badL = intercept[IllegalArgumentException](csr(1, 2))
    assert(badL.getMessage.contains("labels (2)"), badL.getMessage)
    assert(csr(1, 1).numEdges == 1)
  }

  test("the edge list's partitioning does not change the graph") {
    val all = tinyEdges(n = 90, e = 500, seed = 9L).collect().toSeq
    def build(rows: Seq[org.apache.spark.sql.Row], k: Int, undirect: Boolean) = GraphBuilder.fromEdges(
      spark.createDataFrame(spark.sparkContext.parallelize(rows, k), tinyEdges().schema),
      90, s"parts-$k", undirect)
    // Five rows in 8 slices leave some partitions empty.
    for (rows <- Seq(all, all.take(5)); undirect <- Seq(false, true)) {
      val Seq(g1, g3, g8) = Seq(1, 3, 8).map(build(rows, _, undirect))
      assert(g1.numEdges == rows.size * (if (undirect) 2 else 1))
      for (g <- Seq(g3, g8)) {
        val what = s"${rows.size} rows, ${g.name}, undirect=$undirect"
        assert(g.offsets.sameElements(g1.offsets), s"offsets differ: $what")
        assert(g.neighbors.sameElements(g1.neighbors), s"neighbors differ: $what")
        assert(g.weights.sameElements(g1.weights), s"weights differ: $what")
        assert(g.labels.sameElements(g1.labels), s"labels differ: $what")
      }
    }
  }

  test("an edge DataFrame with no rows builds a graph with no edges") {
    val g = GraphBuilder.fromEdges(tinyEdges(n = 30).limit(0), 30, "empty", undirect = true)
    assert(g.numVertices == 30 && g.numEdges == 0)
    assert(g.offsets.length == 31 && g.offsets.forall(_ == 0))
  }

  test("builder rejects edges with a null field") {
    import spark.implicits._
    val df = Seq((0, Some(1), 1f, 0), (1, None, 1f, 0)).toDF("src", "dst", "weight", "label")
    val e = intercept[IllegalArgumentException](GraphBuilder.fromEdges(df, 2, "nulls"))
    assert(e.getMessage.contains("1 rows with a null src, dst, weight or label"), e.getMessage)
  }

  test("the GoldenStatsSpec fixture graph keeps its content hash") {
    assert(GraphHash.of(tinyGraph(n = 2000, e = 12000, seed = 5L)) == "5f389c70547bf066")
  }
}

class GraphGenSpec extends SparkSpec {

  test("all twelve dataset specs are present in paper order") {
    assert(GraphGen.datasets.map(_.key) ==
      Seq("am", "yt", "up", "eu", "ac", "ab", "lj", "ot", "wk", "uk", "tw", "fs"))
  }

  test("edge generation is deterministic in the seed") {
    val s = GraphGen.spec("am")
    val a = GraphGen.edges(spark, s, seed = 1L).collect().map(_.toString).sorted
    val b = GraphGen.edges(spark, s, seed = 1L).collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("generated edges stay in range and avoid self loops (non-bipartite)") {
    val s = GraphGen.spec("am")
    val df = GraphGen.edges(spark, s)
    val bad = df.where(col("src") < 0 || col("src") >= s.vertices ||
      col("dst") < 0 || col("dst") >= s.vertices || col("src") === col("dst")).count()
    assert(bad == 0)
  }

  test("bipartite specs generate only left->right pairs") {
    val s = GraphGen.spec("ac")
    val nLeft = s.vertices / 2
    val df = GraphGen.edges(spark, s)
    assert(df.where(col("src") >= nLeft || col("dst") < nLeft).count() == 0)
  }

  test("am analogue builds with the spec'd sizes and matches paper avg degree class") {
    val g = GraphGen.build(spark, "am")
    val s = GraphGen.spec("am")
    assert(g.numVertices == s.vertices)
    assert(g.numEdges == 2 * s.edges)
    assert(g.avgDegree > 2.0 && g.avgDegree < 8.0) // paper: 3.38 per direction pair
  }

  test("skewed spec yields a much larger max degree than an unskewed one") {
    val yt = GraphGen.build(spark, "yt") // skew 0.75
    assert(yt.maxDegree > 20 * yt.avgDegree, s"max=${yt.maxDegree} avg=${yt.avgDegree}")
  }

  test("wk analogue carries 1327 distinct-label space") {
    val s = GraphGen.spec("wk")
    assert(s.nLabels == 1327)
  }

  test("weights are in [1, 5)") {
    val df = GraphGen.edges(spark, GraphGen.spec("am"))
    assert(df.where(col("weight") < 1.0f || col("weight") >= 5.0f).count() == 0)
  }
}
