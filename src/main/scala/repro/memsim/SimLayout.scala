package repro.memsim

/** The simulated address space: every array the engines charge to
  * [[MemSim]] lives in one region here, and every region's base, element
  * size and stride is defined here and nowhere else. Region k starts at
  * k TB (slot 4 is unused). Every cache's set span is far below 1 TB, so a
  * base sets only a line's tags; element sizes and strides set its sets.
  */
object SimLayout {
  final val OffsetsBase = 0L
  final val NeighborsBase = 1L << 40
  final val WeightsBase = 2L << 40
  final val LabelsBase = 3L << 40
  final val AliasPairBase = 5L << 40
  final val CdfBase = 6L << 40
  final val RejMaxBase = 7L << 40
  final val OutputBase = 8L << 40     // per-walker output buffers
  final val GatherBase = 9L << 40     // per-slot gather buffers (dynamic RW)
  final val VisitedBase = 10L << 40   // BFS per-vertex flags
  final val FrontierBase = 11L << 40  // BFS/SSSP frontier
  final val FrameworkBase = 12L << 40 // GW/KK per-step framework state
  final val DistBase = 13L << 40      // SSSP distances
  final val OutStride = 16L * 1024    // one walker's output buffer
  final val FrameworkBytes = 64L << 20 // the framework region's span

  @inline def offset(v: Int): Long = OffsetsBase + 4L * v
  @inline def neighbor(e: Int): Long = NeighborsBase + 4L * e
  @inline def weight(e: Int): Long = WeightsBase + 4L * e
  @inline def label(e: Int): Long = LabelsBase + 4L * e
  @inline def aliasPair(e: Int): Long = AliasPairBase + 8L * e
  @inline def cdf(e: Int): Long = CdfBase + 8L * e
  @inline def rejMax(v: Int): Long = RejMaxBase + 4L * v
  @inline def output(id: Int, length: Int): Long = OutputBase + id * OutStride + 4L * length
  /** One 8 B weight per edge of the largest adjacency list plus one, in whole lines. */
  def gatherStride(maxDegree: Int): Long = (8L * (maxDegree + 1) + 63) / 64 * 64
  @inline def gather(stride: Long, slot: Int, i: Int): Long = GatherBase + slot * stride + 8L * i
  /** The line of framework access `n`: a multiplicative hash over the region. */
  @inline def framework(n: Long): Long =
    FrameworkBase + ((n * 0x9E3779B97F4A7C15L) & (FrameworkBytes - 1)) / 64 * 64
  @inline def visited(v: Int): Long = VisitedBase + v
  @inline def frontier(i: Int): Long = FrontierBase + 4L * i
  @inline def dist(v: Int): Long = DistBase + 4L * v

  /** Every region: its base and its address function over one index. */
  final case class Region(name: String, base: Long, at: Int => Long)
  val regions: Seq[Region] = Seq(
    Region("offsets", OffsetsBase, offset), Region("neighbors", NeighborsBase, neighbor),
    Region("weights", WeightsBase, weight), Region("labels", LabelsBase, label),
    Region("alias pairs", AliasPairBase, aliasPair), Region("cdf", CdfBase, cdf),
    Region("rejection max", RejMaxBase, rejMax), Region("output", OutputBase, output(0, _)),
    Region("gather", GatherBase, gather(gatherStride(0), 0, _)),
    Region("framework", FrameworkBase, framework(_)), Region("visited", VisitedBase, visited),
    Region("frontier", FrontierBase, frontier), Region("dist", DistBase, dist),
  )
}
