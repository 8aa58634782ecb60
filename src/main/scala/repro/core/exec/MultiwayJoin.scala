package repro.core.exec

import java.time.Instant

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.AccumulatorV2

import repro.core.hcube.{HCube, Rel, Shares}
import repro.core.lftj.{Leapfrog, LeapfrogStats, TrieRelation}

/** The one-round multiway join executor (HCubeJ's execution layer): HCube
  * shuffle with a given share vector, then per-hypercube trie construction
  * and Leapfrog triejoin.
  *
  * Output tuples are in *attribute-id* order (column k = global attribute k),
  * restricted to the attributes the participating relations bind.
  */
object MultiwayJoin {

  /** What one hypercube's join task recorded when its output was drained:
    * the task's wall span in epoch microseconds, and Leapfrog's |T^{i+1}|
    * per level i of the attribute order (the last level counts output rows).
    */
  final case class CubeStats(startUs: Long, endUs: Long, levelCounts: Array[Long]) {
    def rows: Long = levelCounts.last
  }

  /** [[CubeStats]] keyed by partition (= cube) id. A cube's later record
    * replaces its earlier one, so consuming the result twice does not double
    * the figures.
    */
  final class CubeAccumulator extends AccumulatorV2[(Int, CubeStats), Map[Int, CubeStats]] {
    // Written only by the thread merging task updates; read by any.
    @volatile private var cubes = Map.empty[Int, CubeStats]
    override def isZero: Boolean = cubes.isEmpty
    override def copy(): CubeAccumulator = { val c = new CubeAccumulator; c.cubes = cubes; c }
    override def reset(): Unit = cubes = Map.empty
    override def add(v: (Int, CubeStats)): Unit = cubes += v
    override def merge(other: AccumulatorV2[(Int, CubeStats), Map[Int, CubeStats]]): Unit =
      cubes ++= other.value
    override def value: Map[Int, CubeStats] = cubes
  }

  /** The communication phase's wall time, and the join tasks' figures.
    * Nothing forces the join, so `computationSec`, `resultCount` and
    * `levelCounts` fill in as the result is consumed, and are complete once
    * every partition of it has been drained.
    */
  final case class Timings(communicationSec: Double, cubes: CubeAccumulator) {
    /** Wall span from the first join task's start to the last one's end. */
    def computationSec: Double = {
      val cs = cubes.value.values
      if (cs.isEmpty) 0.0 else (cs.map(_.endUs).max - cs.map(_.startUs).min) / 1e6
    }
    def resultCount: Long = cubes.value.values.map(_.rows).sum
    /** |T^{i+1}| per level i of the attribute order, summed over cubes. */
    def levelCounts: Array[Long] =
      cubes.value.values.map(_.levelCounts).reduceOption((a, b) => a.zip(b).map { case (x, y) => x + y })
        .getOrElse(Array.emptyLongArray)
  }

  private def nowUs(): Long = { val t = Instant.now(); t.getEpochSecond * 1000000L + t.getNano / 1000 }

  /** Runs the HCube shuffle and returns the lazy join over its output.
    *
    * @param rels       input relations (global attribute ids per column)
    * @param ord        Leapfrog attribute order over exactly the attrs used
    * @param p          HCube share vector indexed by attribute id
    * @return (result RDD of tuples in attribute-id order, timings); the
    *         shuffle's map stage has run, but trie build and Leapfrog run
    *         only when the result is consumed, once per consumption
    */
  def execute(
      spark: SparkSession,
      rels: Seq[Rel],
      ord: Array[Int],
      p: Array[Int],
  ): (RDD[Array[Long]], Timings) = {
    val lvl   = ord.zipWithIndex.toMap
    val n     = ord.length
    // Row reorder: output column = attribute id ascending over used attrs.
    val outAttrs = ord.sorted
    val outPerm  = outAttrs.map(a => lvl(a)) // out col k takes binding(levels)

    val t0       = System.nanoTime()
    val shuffled = HCube.shufflePull(rels, p)
    shuffled.count() // run the shuffle's map stage: this is the communication phase
    val t1 = System.nanoTime()

    val cubes = new CubeAccumulator
    spark.sparkContext.register(cubes)
    val relAttrs = rels.map(_.attrs).toArray
    val result = shuffled
      .mapPartitionsWithIndex { (cube, it) =>
        val start  = nowUs()
        val stats  = new LeapfrogStats(n)
        val perRel = Array.fill(relAttrs.length)(collection.mutable.ArrayBuffer.empty[Array[Long]])
        it.foreach { case (_, (ri, block)) => perRel(ri) ++= block }
        val rows =
          if (perRel.exists(_.isEmpty)) Iterator.empty
          else {
            val tries = relAttrs.indices.map { ri =>
              TrieRelation.build(relAttrs(ri), lvl, perRel(ri))
            }
            new Leapfrog(tries.toIndexedSeq, n, stats = stats).map { row =>
              val out = new Array[Long](n)
              var k = 0
              while (k < n) { out(k) = row(outPerm(k)); k += 1 }
              out
            }
          }
        // Record the cube's figures when its output is drained.
        new Iterator[Array[Long]] {
          private var open = true
          override def hasNext: Boolean = {
            val more = rows.hasNext
            if (!more && open) { open = false; cubes.add(cube -> CubeStats(start, nowUs(), stats.levelCounts)) }
            more
          }
          override def next(): Array[Long] = rows.next()
        }
      }
      .setName("leapfrog")
    (result, Timings((t1 - t0) / 1e9, cubes))
  }

  /** Convenience: optimizes shares for the given relations and budget, then
    * executes. Used for pre-computing hypertree bags, where the sub-query
    * gets its own share vector.
    */
  def executeOptimized(
      spark: SparkSession,
      rels: Seq[Rel],
      ord: Array[Int],
      numAttrs: Int,
      cubeBudget: Int,
  ): (RDD[Array[Long]], Timings, Array[Int]) = {
    val shares = Shares.optimize(rels.map(r => (r.attrs.toSet, r.size)), numAttrs, cubeBudget)
    val (rdd, t) = execute(spark, rels, ord, shares.p)
    (rdd, t, shares.p)
  }
}
