package repro.core.exec

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

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

  /** Wall-clock phases of one execution, in seconds, plus the result size
    * (counted while forcing the computation).
    */
  final case class Timings(communicationSec: Double, computationSec: Double, resultCount: Long)

  /** Runs the one-round join.
    *
    * @param rels       input relations (global attribute ids per column)
    * @param ord        Leapfrog attribute order over exactly the attrs used
    * @param p          HCube share vector indexed by attribute id
    * @return (result RDD of tuples in attribute-id order, timings); the
    *         result is counted to time the computation phase but NOT
    *         persisted, so consuming it runs trie build and Leapfrog again
    *         over the shuffle output
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
    val shuffled = HCube.shufflePull(rels, p).persist(StorageLevel.MEMORY_AND_DISK)
    shuffled.count() // force the shuffle: this is the communication phase
    val t1 = System.nanoTime()

    val relAttrs = rels.map(_.attrs).toArray
    val result = shuffled
      .mapPartitions { it =>
        val perRel = Array.fill(relAttrs.length)(collection.mutable.ArrayBuffer.empty[Array[Long]])
        it.foreach { case (_, (ri, block)) => perRel(ri) ++= block }
        if (perRel.exists(_.isEmpty)) Iterator.empty
        else {
          val tries = relAttrs.indices.map { ri =>
            TrieRelation.build(relAttrs(ri), lvl, perRel(ri))
          }
          val lf = new Leapfrog(tries.toIndexedSeq, n, stats = new LeapfrogStats(n))
          lf.map { row =>
            val out = new Array[Long](n)
            var k = 0
            while (k < n) { out(k) = row(outPerm(k)); k += 1 }
            out
          }
        }
      }
    val cnt = result.count() // force the join: this is the computation phase
    val t2 = System.nanoTime()
    shuffled.unpersist(blocking = false)
    (result, Timings((t1 - t0) / 1e9, (t2 - t1) / 1e9, cnt))
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
