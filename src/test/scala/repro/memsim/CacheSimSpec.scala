package repro.memsim

import org.scalatest.funsuite.AnyFunSuite

class CacheSimSpec extends AnyFunSuite {

  test("cold access misses, repeat access hits") {
    val c = new CacheSim(1024, 4)
    assert(!c.access(0L))
    assert(c.access(0L))
    assert(c.access(63L)) // same line
    assert(!c.access(64L)) // next line
    assert(c.hits == 2 && c.misses == 2)
  }

  test("capacity eviction under LRU within a set") {
    // 1 KB, 4-way, 64 B lines -> 4 sets; lines mapping to set 0 are multiples of 4.
    val c = new CacheSim(1024, 4)
    val set0 = (0 until 5).map(i => i * 4 * 64L) // 5 lines, one set, 4 ways
    set0.foreach(a => assert(!c.access(a)))
    // line 0 was LRU -> evicted
    assert(!c.access(set0(0)))
    // line 1 is still resident? it became LRU after the access of set0(0) evicted it...
    // deterministic: after inserting 5 lines, lines 1..4 resident; re-access 0 evicts 1.
    assert(!c.access(set0(1)))
  }

  test("distinct sets do not interfere") {
    val c = new CacheSim(1024, 4)
    (0 until 4).foreach(s => assert(!c.access(s * 64L)))
    (0 until 4).foreach(s => assert(c.access(s * 64L)))
  }

  test("contains does not change state") {
    val c = new CacheSim(1024, 4)
    assert(!c.contains(0L))
    c.access(0L)
    assert(c.contains(0L))
    assert(c.hits == 0 && c.misses == 1)
  }

  test("fill makes subsequent access a hit without counting a demand miss") {
    val c = new CacheSim(1024, 4)
    c.fill(128L)
    assert(c.access(128L))
    assert(c.misses == 0)
  }

  test("rejects capacity not divisible by line*ways") {
    intercept[IllegalArgumentException](new CacheSim(1000, 4))
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
    val Seq(a, b, cc, d, e) = (0 until 5).map(i => i * 4 * 64L)
    Seq(a, b, cc, d).foreach(c.fill) // stamps 1, 2, 3, 4 in ways 0..3
    c.fill(a) // hit: way 0 takes stamp 4 without advancing it -> ties with d
    c.access(b); c.access(cc) // stamps 5, 6
    assert(!c.access(e))
    // Ways 0 (a) and 3 (d) tie on the minimum; the first one is evicted.
    assert(!c.contains(a))
    assert(c.contains(d) && c.contains(b) && c.contains(cc) && c.contains(e))
  }

  test("LRU is per-set: hot line survives heavy traffic in other sets") {
    val c = new CacheSim(1024, 4)
    c.access(0L) // set 0
    (1 to 100).foreach(i => c.access((4 * i + 1) * 64L)) // set 1 traffic
    assert(c.access(0L))
  }
}
