package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.graph.{CSRGraph, GraphBuilder, GraphGen}

/** Small deterministic graphs for unit tests. */
trait GraphFixtures { self: SparkSpec =>

  /** Random-ish weighted, labeled multigraph: n vertices, e undirected
    * pairs (doubled by the builder), weights in [1,5), labels in
    * [0, nLabels). The edge range has a fixed partition count, so the
    * graph does not depend on the host's core count.
    */
  def tinyEdges(n: Int = 200, e: Int = 1200, nLabels: Int = 5, seed: Long = 11L): DataFrame =
    spark.range(0, e, 1, GraphGen.Partitions).select(
      (rand(seed) * n).cast(IntegerType) as "src",
      (rand(seed + 1) * n).cast(IntegerType) as "dst",
      (rand(seed + 2) * 4 + 1).cast(FloatType) as "weight",
      (rand(seed + 3) * nLabels).cast(IntegerType) as "label",
    )

  def tinyGraph(n: Int = 200, e: Int = 1200, nLabels: Int = 5, seed: Long = 11L): CSRGraph =
    GraphBuilder.fromEdges(tinyEdges(n, e, nLabels, seed), n, s"tiny-$n-$e", undirect = true)

  /** Hand-built graph from explicit (src, dst, weight, label) triples. */
  def explicitGraph(n: Int, edges: Seq[(Int, Int, Float, Int)],
                    undirect: Boolean = false): CSRGraph = {
    import spark.implicits._
    val df = edges.toDF("src", "dst", "weight", "label")
    GraphBuilder.fromEdges(df, n, "explicit", undirect)
  }
}
