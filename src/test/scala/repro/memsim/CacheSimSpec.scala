package repro.memsim

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Line-level tests: `ln` arguments are line addresses (byte address >> 6),
  * driven the way [[MemSim]] drives a level.
  */
class CacheSimSpec extends AnyFunSuite {

  // A demand access, as MemSim's demand path makes it: probe, then accessAt.
  private def access(c: CacheSim, ln: Long): Boolean = c.accessAt(c.find(ln), ln)
  // A fill without a demand hit or miss, as MemSim's fill of L2/L3.
  private def fill(c: CacheSim, ln: Long): Unit = { val i = c.find(ln); if (i >= 0) c.touch(i) else c.insertAt(i, ln) }

  test("cold access misses, repeat access hits") {
    val c = new CacheSim(1024, 4)
    assert(c.lineShift == 6)
    assert(!access(c, 0L >> c.lineShift))
    assert(access(c, 0L >> c.lineShift))
    assert(access(c, 63L >> c.lineShift)) // same line
    assert(!access(c, 64L >> c.lineShift)) // next line
    assert(c.hits == 2 && c.misses == 2)
  }

  test("capacity eviction under LRU within a set") {
    // 1 KB, 4-way, 64 B lines -> 4 sets; lines mapping to set 0 are multiples of 4.
    val c = new CacheSim(1024, 4)
    val set0 = (0 until 5).map(i => i * 4L) // 5 lines, one set, 4 ways
    set0.foreach(ln => assert(!access(c, ln)))
    // line 0 was LRU -> evicted
    assert(!access(c, set0(0)))
    // After inserting 5 lines, lines 1..4 were resident; re-accessing 0 evicted 1.
    assert(!access(c, set0(1)))
  }

  test("distinct sets do not interfere") {
    val c = new CacheSim(1024, 4)
    (0 until 4).foreach(s => assert(!access(c, s.toLong)))
    (0 until 4).foreach(s => assert(access(c, s.toLong)))
  }

  test("find does not change state") {
    val c = new CacheSim(1024, 4)
    assert(c.find(0L) < 0)
    access(c, 0L)
    assert(c.find(0L) >= 0)
    assert(c.hits == 0 && c.misses == 1)
  }

  test("fill makes subsequent access a hit without counting a demand miss") {
    val c = new CacheSim(1024, 4)
    fill(c, 128L >> c.lineShift)
    assert(access(c, 128L >> c.lineShift))
    assert(c.misses == 0 && c.hits == 1)
  }

  test("rejects capacity not divisible by line*ways") {
    intercept[IllegalArgumentException](new CacheSim(1000, 4))
  }

  test("rejects an associativity below 1 before dividing by it") {
    for (w <- Seq(0, -2)) {
      val e = intercept[IllegalArgumentException](new CacheSim(8192, w))
      assert(e.getMessage.contains(s"associativity $w must be at least 1"))
    }
  }

  test("rejects a set count or line size that is not a power of two") {
    val sets = intercept[IllegalArgumentException](new CacheSim(3 * 4 * 64, 4)) // 3 sets
    assert(sets.getMessage.contains("set count 3") && sets.getMessage.contains("power of two"))
    val line = intercept[IllegalArgumentException](new CacheSim(48 * 4 * 4, 4, lineBytes = 48))
    assert(line.getMessage.contains("line size 48") && line.getMessage.contains("power of two"))
    new CacheSim(3 * 4 * 64, 3) // 4 sets of 3 ways: associativity need not be a power of two
  }

  test("a fill hit keeps the stamp, so the next miss evicts the first oldest way") {
    // 4 sets; lines 0, 4, 8, 12, 16 all map to set 0.
    val c = new CacheSim(1024, 4)
    val Seq(a, b, cc, d, e) = (0 until 5).map(i => i * 4L)
    Seq(a, b, cc, d).foreach(fill(c, _)) // stamps 1, 2, 3, 4 in ways 0..3
    fill(c, a) // hit: way 0 takes stamp 4 without advancing it -> ties with d
    access(c, b); access(c, cc) // stamps 5, 6
    assert(c.find(a) == 0 && ~c.find(e) == 0) // the miss names way 0 as its victim
    assert(!access(c, e))
    // Ways 0 (a) and 3 (d) tie on the minimum; the first one is evicted.
    assert(c.find(a) < 0)
    assert(Seq(d, b, cc, e).forall(c.find(_) >= 0))
  }

  test("LRU is per-set: hot line survives heavy traffic in other sets") {
    val c = new CacheSim(1024, 4)
    access(c, 0L) // set 0
    (1 to 100).foreach(i => access(c, 4L * i + 1)) // set 1 traffic
    assert(access(c, 0L))
  }

  test("a fresh cache holds no line, line 0 included") {
    val c = new CacheSim(1024, 4)
    assert((0L until 64L).forall(c.find(_) < 0))
    assert(!access(c, 0L) && c.misses == 1)
  }

  /** Reference model in two passes: a tag scan, then a separate scan of the
    * set's stamps for the victim, the first way with the minimum stamp. Same
    * slot layout and stamp rules as [[CacheSim]]; `access` and `fill` return
    * the slot they used, encoded as `find` encodes it (`~slot` on a miss).
    */
  private final class TwoPassCache(sets: Int, ways: Int) {
    val tags: Array[Long] = Array.fill(sets * ways)(-1L)
    private val lru = new Array[Long](sets * ways)
    private var stamp = 0L
    var tiedEvictions = 0

    private def slot(ln: Long, base: Int): Int = {
      var i = base
      while (i < base + ways) { if (tags(i) == ln) return i; i += 1 }
      -1
    }
    private def victim(base: Int): Int = {
      var v = base
      for (i <- base + 1 until base + ways) if (lru(i) < lru(v)) v = i
      if ((base until base + ways).count(lru(_) == lru(v)) > 1) tiedEvictions += 1
      v
    }
    private def op(ln: Long, demand: Boolean): Int = {
      val base = (ln & (sets - 1)).toInt * ways
      if (demand) stamp += 1
      val i = slot(ln, base)
      if (i >= 0) { lru(i) = stamp; i } // a fill hit keeps the current stamp
      else {
        val v = victim(base)
        if (!demand) stamp += 1
        tags(v) = ln; lru(v) = stamp; ~v
      }
    }
    def access(ln: Long): Int = op(ln, demand = true)
    def fill(ln: Long): Int = op(ln, demand = false)
  }

  test("one-pass find agrees with a two-pass tag scan and victim scan") {
    // 4 sets x 4 ways; 32 lines put 8 candidates on each set, and half the
    // ops are fills, whose hits keep the stamp and so create ties.
    val c = new CacheSim(4 * 4 * 64, 4)
    val ref = new TwoPassCache(4, 4)
    val rnd = new Random(20211)
    var demandHits, demandMisses = 0L
    for (op <- 0 until 200000) {
      val ln = rnd.nextInt(32).toLong
      val r = c.find(ln)
      if (rnd.nextBoolean()) {
        assert(r == ref.fill(ln), s"op $op: fill of line $ln")
        fill(c, ln)
      } else {
        assert(r == ref.access(ln), s"op $op: access of line $ln")
        assert(c.accessAt(r, ln) == r >= 0)
        if (r >= 0) demandHits += 1 else demandMisses += 1
      }
    }
    assert(ref.tiedEvictions > 1000, "the op mix must exercise stamp ties")
    assert(c.hits == demandHits && c.misses == demandMisses)
    assert((0L until 32L).filter(c.find(_) >= 0).toSet == ref.tags.filter(_ >= 0).toSet)
    assert((0L until 32L).forall(ln => c.find(ln) < 0 || ref.tags(c.find(ln)) == ln))
  }
}
