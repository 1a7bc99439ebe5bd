package repro.memsim

/** One level of a set-associative, LRU, write-allocate cache.
  *
  * Addresses are non-negative byte addresses in the simulated address
  * space (see [[SimLayout]] for the layout). The cache tracks
  * cache-line tags only — no data is stored, since the engines operate on
  * the real JVM arrays and the simulator only accounts for latency.
  *
  * The line size and the number of sets must be powers of two, so the
  * line and set of an address are a shift and a mask.
  *
  * The line-level primitives (`find`, `touch`, `insertAt`, `accessAt`) let
  * [[MemSim]] scan a set once per access: `find` returns the hit slot or,
  * on a miss, the LRU victim, and the install acts on that result.
  *
  * @param capacityBytes total capacity; must be a multiple of lineBytes*ways
  * @param ways          associativity
  * @param lineBytes     cache-line size (64 B, as on the paper's Skylake)
  */
final class CacheSim(val capacityBytes: Int, val ways: Int, val lineBytes: Int = 64) {
  require(ways >= 1, s"associativity $ways must be at least 1")
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

  /** Probe `line`'s set once. On a hit, returns the slot (an index into
    * the tag array) holding `line`; on a miss, returns `~v`, where `v` is
    * the slot an install of `line` replaces: the first way with the minimum
    * LRU stamp. Ties are real (see `touch`), so the scan order matters.
    */
  def find(line: Long): Int = {
    val base = setBase(line)
    var v = base
    var oldest = Long.MaxValue
    var i = base
    val end = base + ways
    while (i < end) {
      if (tags(i) == line) return i
      if (lru(i) < oldest) { oldest = lru(i); v = i }
      i += 1
    }
    ~v
  }

  /** Fill-path hit on slot `i`: refresh its LRU stamp without advancing it. */
  @inline def touch(i: Int): Unit = lru(i) = stamp

  /** Fill-path miss, given `r = find(line) < 0`: install `line` in slot
    * `~r` with a new stamp and return that slot. The set must not have
    * changed since the `find`.
    */
  def insertAt(r: Int, line: Long): Int = {
    val v = ~r
    tags(v) = line
    stamp += 1
    lru(v) = stamp
    v
  }

  /** Demand access of `line`, given `i = find(line)` with the set unchanged
    * since: counts a hit (refreshing slot `i` with a new stamp) or a miss
    * (installing `line` in slot `~i`). Returns true on hit.
    */
  def accessAt(i: Int, line: Long): Boolean =
    if (i >= 0) { stamp += 1; lru(i) = stamp; hits += 1; true }
    else { insertAt(i, line); misses += 1; false }
}
