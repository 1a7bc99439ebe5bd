package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Spark DataFrame generators for the paper's twelve dataset analogues.
  *
  * Real graphs (SNAP / network-repository downloads) are substituted by
  * deterministic power-law synthetics scaled down 100-800x (each spec's
  * `scale`), all simulated on the one default `MemConfig` (see DESIGN.md §2).
  * Each spec matches the original's average degree, skew class,
  * bipartite-ness and label/weight scheme; edges carry a uniform [1, 5)
  * weight and a label drawn from `nLabels` distinct labels (1327 for wk),
  * mirroring the paper's §6.1 workload setup.
  */
object GraphGen {

  /** One synthetic analogue: `edges` undirected pairs are generated and
    * doubled by the builder, so avg degree = 2*edges/vertices as in the
    * paper's Table 5 (whose |E| column counts undirected pairs).
    */
  final case class DatasetSpec(
      key: String,
      fullName: String,
      vertices: Int,
      edges: Int,
      skew: Double, // zipf exponent of destination popularity; 0 = uniform
      bipartite: Boolean,
      nLabels: Int,
      scale: Int, // scale-down factor vs the paper's graph
  )

  /** The twelve analogues of Table 5, in the paper's order. */
  val datasets: Seq[DatasetSpec] = Seq(
    DatasetSpec("am", "amazon",          5_500,  18_500, 0.45, bipartite = false,    5, 100),
    DatasetSpec("yt", "youtube",        11_400,  29_900, 0.75, bipartite = false,    5, 100),
    DatasetSpec("up", "us-patents",     37_800, 165_200, 0.30, bipartite = false,    5, 100),
    DatasetSpec("eu", "eu-2005",         8_600, 192_400, 0.65, bipartite = false,    5, 100),
    DatasetSpec("ac", "amazon-clothing",75_800, 316_700, 0.55, bipartite = true,     5, 200),
    DatasetSpec("ab", "amazon-book",    91_500, 510_600, 0.55, bipartite = true,     5, 200),
    DatasetSpec("lj", "livejournal",    48_500, 689_900, 0.55, bipartite = false,    5, 100),
    DatasetSpec("ot", "com-orkut",      15_400, 585_900, 0.50, bipartite = false,    5, 200),
    DatasetSpec("wk", "wikidata",      102_400, 663_000, 0.85, bipartite = false, 1327, 400),
    DatasetSpec("uk", "uk-2002",        46_300, 745_300, 0.70, bipartite = false,    5, 400),
    DatasetSpec("tw", "twitter",        52_100, 1_512_500, 0.75, bipartite = false,  5, 800),
    DatasetSpec("fs", "friendster",     82_000, 2_262_500, 0.25, bipartite = false,  5, 800),
  )

  val keys: Seq[String] = datasets.map(_.key) // every dataset, in the paper's order

  def spec(key: String): DatasetSpec =
    datasets.find(_.key == key).getOrElse(sys.error(s"unknown dataset '$key'"))

  /** Partitions of every generated edge range. Spark seeds `rand` per
    * partition, so a range split by `defaultParallelism` would give a
    * different graph on every core count; 4 keeps the graphs of a 4-core
    * host.
    */
  val Partitions = 4

  /** Generate the undirected edge-pair DataFrame for a spec:
    * columns (src INT, dst INT, weight FLOAT, label INT).
    */
  def edges(spark: SparkSession, s: DatasetSpec, seed: Long = 42L): DataFrame = {
    val n = s.vertices
    if (s.bipartite) {
      // users [0, nLeft) -> items [nLeft, n): review graphs (ac, ab).
      val nLeft = n / 2
      val nRight = n - nLeft
      val cols = Seq(
        (rand(seed) * nLeft).cast(IntegerType) as "src",
        (lit(nLeft) + zipfCol(rand(seed + 1), nRight, s.skew)).cast(IntegerType) as "dst",
      ) ++ attrCols(seed, s.nLabels)
      spark.range(0, s.edges, 1, Partitions).select(cols: _*)
    } else {
      val cols = Seq(
        (rand(seed) * n).cast(IntegerType) as "src",
        zipfCol(rand(seed + 1), n, s.skew).cast(IntegerType) as "dst",
      ) ++ attrCols(seed, s.nLabels)
      spark.range(0, s.edges, 1, Partitions).select(cols: _*)
        .withColumn("dst", when(col("dst") === col("src"), (col("dst") + 1) % n).otherwise(col("dst")))
    }
  }

  private def attrCols(seed: Long, nLabels: Int) = Seq(
    (rand(seed + 2) * 4 + 1).cast(FloatType) as "weight",
    (rand(seed + 3) * nLabels).cast(IntegerType) as "label",
  )

  /** Power-law popularity over [0, n): rank r drawn with weight r^-s
    * (Chung–Lu style), via the inverse CDF r = n * u^(1/(1-s)). Expected
    * max degree ≈ E*(1-s)/n^(1-s), so s in [0, 1) spans realistic skews
    * from uniform (s=0) to wikidata/twitter-grade hubs (s≈0.8).
    */
  private def zipfCol(u: org.apache.spark.sql.Column, n: Int, skew: Double): org.apache.spark.sql.Column =
    if (skew <= 0.01) (u * n).cast(IntegerType)
    else {
      val rank = pow(u, lit(1.0 / (1.0 - skew))) * n
      least(lit(n - 1), greatest(lit(0), rank.cast(IntegerType)))
    }

  /** Build the CSR analogue for a dataset key (generation + CSR assembly). */
  def build(spark: SparkSession, key: String): CSRGraph = {
    val s = spec(key)
    GraphBuilder.fromEdges(edges(spark, s), s.vertices, s.key, undirect = true)
  }
}
