package repro.memsim

/** One level of a set-associative, LRU, write-allocate cache.
  *
  * Addresses are non-negative byte addresses in the simulated address
  * space (see [[repro.graph.CSRGraph]] for the layout). The cache tracks
  * cache-line tags only — no data is stored, since the engines operate on
  * the real JVM arrays and the simulator only accounts for latency.
  *
  * The line size and the number of sets must be powers of two, so the
  * line and set of an address are a shift and a mask.
  *
  * The line-level primitives (`find`, `touch`, `insert`, `accessAt`) let
  * [[MemSim]] probe a level once and act on the result.
  *
  * @param capacityBytes total capacity; must be a multiple of lineBytes*ways
  * @param ways          associativity
  * @param lineBytes     cache-line size (64 B, as on the paper's Skylake)
  */
final class CacheSim(val capacityBytes: Int, val ways: Int, val lineBytes: Int = 64) {
  require(Integer.bitCount(lineBytes) == 1, s"line size $lineBytes is not a power of two")
  require(capacityBytes % (lineBytes * ways) == 0,
    s"capacity $capacityBytes not divisible by line*ways ${lineBytes * ways}")

  val numSets: Int = capacityBytes / (lineBytes * ways)
  require(Integer.bitCount(numSets) == 1,
    s"set count $numSets (capacity $capacityBytes / (line $lineBytes * ways $ways)) is not a power of two")

  val lineShift: Int = Integer.numberOfTrailingZeros(lineBytes)
  private val setMask: Long = numSets - 1L

  // tags(set * ways + way): line address (addr >> lineShift), -1 = invalid.
  private val tags = new Array[Long](numSets * ways)
  java.util.Arrays.fill(tags, -1L)
  // lru(set * ways + way): monotonically increasing access stamp.
  private val lru = new Array[Long](numSets * ways)
  private var stamp = 0L

  var hits: Long = 0L
  var misses: Long = 0L

  @inline private def setBase(line: Long): Int = (line & setMask).toInt * ways

  /** Way slot holding `line` (an index into the tag array), or -1. */
  def find(line: Long): Int = {
    val base = setBase(line)
    var i = base
    val end = base + ways
    while (i < end) { if (tags(i) == line) return i; i += 1 }
    -1
  }

  /** Fill-path hit on slot `i`: refresh its LRU stamp without advancing it. */
  @inline def touch(i: Int): Unit = lru(i) = stamp

  /** Fill-path miss: evict the first least-recently-used way of the line's
    * set, install `line` with a new stamp, and return its slot.
    */
  def insert(line: Long): Int = {
    val v = victim(line)
    tags(v) = line
    stamp += 1
    lru(v) = stamp
    v
  }

  /** Demand access of `line`, given `i = find(line)`: advances the stamp,
    * then counts a hit (refreshing slot `i`) or a miss (evicting the LRU
    * way). Returns true on hit.
    */
  def accessAt(i: Int, line: Long): Boolean = {
    stamp += 1
    if (i >= 0) { lru(i) = stamp; hits += 1; true }
    else {
      val v = victim(line)
      tags(v) = line
      lru(v) = stamp
      misses += 1
      false
    }
  }

  // First way with the minimum stamp: ties are real, so the scan order matters.
  private def victim(line: Long): Int = {
    val base = setBase(line)
    var v = base
    var oldest = lru(base)
    var i = base + 1
    val end = base + ways
    while (i < end) {
      if (lru(i) < oldest) { oldest = lru(i); v = i }
      i += 1
    }
    v
  }
}
