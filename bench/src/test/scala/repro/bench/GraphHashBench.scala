package repro.bench

import repro.exp.Experiments
import repro.graph.GraphHash

/** Pins every dataset graph to its content hash (see [[GraphHash]]), so a
  * change to generation or CSR assembly cannot move the graphs, and with
  * them every table, silently. The graphs are cached per JVM, so this
  * costs only the hashing.
  */
class GraphHashBench extends BenchBase {
  private val pinned = Map(
    "am" -> "c120a1e154fdf395", "yt" -> "afb864d0deeb2584", "up" -> "af0242e433874d89",
    "eu" -> "073a423f5fa90f9f", "ac" -> "926f3828c0cc6c28", "ab" -> "1e2fe617d9c802a3",
    "lj" -> "91390d9200af8702", "ot" -> "e64c565c2d611fc1", "wk" -> "50cb1f94e26bae68",
    "uk" -> "407515eee02e4862", "tw" -> "00b7268f39fa71d0", "fs" -> "92797cf56f2f331a")

  test("every dataset graph hashes to its pinned value") {
    val got = datasetKeys.map(k => k -> GraphHash.of(Experiments.graph(spark, k)))
    println("\n== Dataset graph hashes ==")
    got.foreach { case (k, h) => println(f"$k%-4s $h") }
    val wrong = got.filter { case (k, h) => !pinned.get(k).contains(h) }
    assert(wrong.isEmpty, s"graphs that moved (key, hash): $wrong")
  }
}
