package repro.memsim

/** Pending software prefetches: line -> (ready cycle, extra demand-use
  * cost), as a primitive open-addressing table (linear probing,
  * backward-shift deletion), so the prefetch/read hot path allocates
  * nothing. Keys are cache-line numbers and must be non-negative.
  *
  * `put` overwrites a pending entry for the same line; entries that are
  * never read stay for the life of the table.
  */
private[memsim] final class PrefetchTable(initialCapacity: Int = 64) {
  import PrefetchTable.Empty
  require(Integer.bitCount(initialCapacity) == 1 && initialCapacity >= 2,
    s"capacity $initialCapacity is not a power of two >= 2")

  private var keys = Array.fill(initialCapacity)(Empty)
  private var readyAt = new Array[Double](initialCapacity)
  private var extras = new Array[Int](initialCapacity)
  private var mask = initialCapacity - 1
  private var shift = 64 - Integer.numberOfTrailingZeros(initialCapacity)
  private var count = 0

  def size: Int = count
  def capacity: Int = keys.length

  // Fibonacci hashing: consecutive lines spread over the whole table.
  @inline def home(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

  /** Slot of `key`, or -1 when it has no pending prefetch. */
  def find(key: Long): Int = {
    var i = home(key)
    while (true) {
      val k = keys(i)
      if (k == key) return i
      if (k == Empty) return -1
      i = (i + 1) & mask
    }
    -1
  }

  @inline def ready(i: Int): Double = readyAt(i)
  @inline def extra(i: Int): Int = extras(i)

  def put(key: Long, ready: Double, extra: Int): Unit = {
    var i = home(key)
    while (keys(i) != Empty && keys(i) != key) i = (i + 1) & mask
    if (keys(i) == Empty) {
      keys(i) = key
      count += 1
    }
    readyAt(i) = ready
    extras(i) = extra
    if (2 * count > keys.length) grow()
  }

  /** Delete slot `i` (from `find`), shifting later entries of its probe
    * run back so every remaining key stays reachable from its home slot.
    */
  def removeAt(i: Int): Unit = {
    var hole = i
    var j = (i + 1) & mask
    while (keys(j) != Empty) {
      val h = home(keys(j))
      // Entry j may fill the hole unless its home lies cyclically in (hole, j].
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        keys(hole) = keys(j); readyAt(hole) = readyAt(j); extras(hole) = extras(j)
        hole = j
      }
      j = (j + 1) & mask
    }
    keys(hole) = Empty
    count -= 1
  }

  private def grow(): Unit = {
    val oldKeys = keys
    val oldReady = readyAt
    val oldExtras = extras
    val cap = 2 * oldKeys.length
    keys = Array.fill(cap)(Empty)
    readyAt = new Array[Double](cap)
    extras = new Array[Int](cap)
    mask = cap - 1
    shift -= 1
    count = 0
    var i = 0
    while (i < oldKeys.length) {
      if (oldKeys(i) != Empty) put(oldKeys(i), oldReady(i), oldExtras(i))
      i += 1
    }
  }
}

private[memsim] object PrefetchTable {
  final val Empty = -1L
}
