package repro.graph

/** Compressed-sparse-row graph, the paper's storage format (§B).
  *
  * Vertices are `0 until numVertices`; `offsets` has `numVertices + 1`
  * entries; edge `e` (an index into `neighbors`) carries a weight and a
  * label, stored as parallel arrays exactly as in the paper. Both arrays
  * are required and have one entry per edge.
  *
  * Every array is also mapped into a *simulated address space* (disjoint
  * 1 TB regions) so the engines can charge the memory simulator for the
  * same loads the C++ implementation would issue.
  */
final class CSRGraph(
    val name: String,
    val numVertices: Int,
    val offsets: Array[Int],
    val neighbors: Array[Int],
    val weights: Array[Float],
    val labels: Array[Int],
) extends Serializable {
  require(offsets.length == numVertices + 1, "offsets must have V+1 entries")
  require(weights.length == neighbors.length && labels.length == neighbors.length,
    s"weights (${weights.length}) and labels (${labels.length}) need one entry per edge (${neighbors.length})")

  def numEdges: Int = neighbors.length

  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  @inline def edgeBegin(v: Int): Int = offsets(v)
  @inline def neighbor(e: Int): Int = neighbors(e)
  @inline def weight(e: Int): Float = weights(e)
  @inline def label(e: Int): Int = labels(e)

  /** Binary search: is `u` a neighbor of `v`? Neighbor lists are sorted by
    * the builder; used by Node2Vec's distance check. Each probed edge
    * index is passed to `probe`, in order, so callers can charge the
    * simulator per probe without allocating.
    */
  def isNeighbor(v: Int, u: Int, probe: Int => Unit = _ => ()): Boolean = {
    var lo = offsets(v)
    var hi = offsets(v + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      probe(mid)
      val nv = neighbors(mid)
      if (nv == u) return true
      else if (nv < u) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Largest out-degree, scanned once at construction: engines size their
    * gather buffers by it on every slot.
    */
  val maxDegree: Int = {
    var m = 0; var v = 0
    while (v < numVertices) { val d = degree(v); if (d > m) m = d; v += 1 }
    m
  }

  def avgDegree: Double = numEdges.toDouble / numVertices

  /** Resident bytes of the CSR arrays (Table 5 "Memory" column). */
  def memoryBytes: Long =
    4L * offsets.length + 4L * neighbors.length +
      4L * weights.length + 4L * labels.length

  // ---- simulated address space -------------------------------------------
  import CSRGraph._
  @inline def addrOffset(v: Int): Long = OffsetsBase + 4L * v
  @inline def addrNeighbor(e: Int): Long = NeighborsBase + 4L * e
  @inline def addrWeight(e: Int): Long = WeightsBase + 4L * e
  @inline def addrLabel(e: Int): Long = LabelsBase + 4L * e
  @inline def addrAliasPair(e: Int): Long = AliasPairBase + 8L * e
  @inline def addrCdf(e: Int): Long = CdfBase + 8L * e
  @inline def addrRejMax(v: Int): Long = RejMaxBase + 4L * v
}

object CSRGraph {
  // Disjoint simulated regions, 1 TB apart so they never alias.
  val OffsetsBase: Long = 0L
  val NeighborsBase: Long = 1L << 40
  val WeightsBase: Long = 2L << 40
  val LabelsBase: Long = 3L << 40
  val AliasPairBase: Long = 5L << 40
  val CdfBase: Long = 6L << 40
  val RejMaxBase: Long = 7L << 40
  val OutputBase: Long = 8L << 40
  val GatherBase: Long = 9L << 40   // per-step thread-local C buffer
  val VisitedBase: Long = 10L << 40 // BFS/SSSP per-vertex state
  val FrontierBase: Long = 11L << 40
}
