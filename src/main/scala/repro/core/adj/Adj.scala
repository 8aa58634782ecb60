package repro.core.adj

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

import repro.core.exec.MultiwayJoin
import repro.core.ghd.GHD
import repro.core.hcube.{Rel, Shares}
import repro.core.hypergraph.Hypergraph
import repro.core.sampling.Sampler

/** The ADJ prototype (Sec. III & V): one-round multiway join with
  * co-optimized pre-computing, communication, and computation.
  */
object Adj {

  /** Which optimizer strategy to run. A strategy only decides the plan;
    * both run through the same pre-compute and one-round execution.
    *
    *  - [[CoOptimization]]: the paper's contribution — GHD + sampling +
    *    Algorithm 2, possibly pre-computing hypertree bags.
    *  - [[CommunicationFirst]]: HCubeJ [11] — minimize shuffled tuples only,
    *    never pre-compute, and use the query's textual attribute order.
    */
  sealed trait Strategy
  case object CoOptimization      extends Strategy
  case object CommunicationFirst  extends Strategy

  /** @param samples      sampling budget per cardinality estimate
    * @param cubeBudget   hypercubes for HCube (default: default parallelism)
    * @param memoryTuples per-server tuple budget for the shares program
    */
  final case class Config(
      strategy: Strategy = CoOptimization,
      samples: Int = 500,
      cubeBudget: Option[Int] = None,
      memoryTuples: Option[Double] = None,
  )

  /** Per-stage wall-clock report matching the paper's Tables II–IV columns.
    *
    * The result of [[run]] is lazy: its trie build and Leapfrog run in the
    * job that consumes it. `computationSec`, `resultCount` and `levelCounts`
    * come from that job's join tasks, so they read 0 (or partial figures)
    * until the result has been fully consumed, and a second consumption
    * replaces rather than adds to them.
    */
  final case class Report(
      optimizationSec: Double,
      preComputingSec: Double,
      plan: Plan,
      shuffledTuples: Double,
      exec: MultiwayJoin.Timings,
  ) {
    def communicationSec: Double = exec.communicationSec
    /** Wall span from the first join task's start to the last one's end. */
    def computationSec: Double = exec.computationSec
    def resultCount: Long = exec.resultCount
    /** Actual |T^{i+1}| per level i of `plan.ord`, summed over cubes. */
    def levelCounts: Array[Long] = exec.levelCounts
    def totalSec: Double = optimizationSec + preComputingSec + communicationSec + computationSec
    override def toString: String =
      f"opt=$optimizationSec%.2fs pre=$preComputingSec%.2fs comm=$communicationSec%.2fs " +
        f"comp=$computationSec%.2fs total=$totalSec%.2fs $plan"
  }

  /** Runs a natural join query.
    *
    * Inputs the caller has not persisted are persisted for the run (they are
    * counted, sampled and shuffled) and unpersisted before returning; inputs
    * already persisted keep the caller's storage level.
    *
    * Optimization, bag pre-compute and the HCube shuffle's map stage run
    * here; the final join's trie build and Leapfrog run once per consumption
    * of the returned result.
    *
    * @param data one RDD per query atom; columns in the atom's attribute order
    * @return result tuples in ascending attribute-id order (= the query's
    *         first-appearance attribute order), plus the cost report, whose
    *         computation figures are valid once the result is fully consumed
    */
  def run(
      spark: SparkSession,
      query: Hypergraph,
      data: IndexedSeq[RDD[Array[Long]]],
      cfg: Config = Config(),
  ): (RDD[Array[Long]], Report) = {
    require(data.length == query.numAtoms, "one RDD per atom required")
    val budget = cfg.cubeBudget.getOrElse(math.max(2, spark.sparkContext.defaultParallelism))

    // Count each distinct backing RDD once (the workload reuses one graph).
    val sizeByRddId = collection.mutable.Map.empty[Int, Long]
    val persisted   = collection.mutable.ArrayBuffer.empty[RDD[Array[Long]]]
    try {
      val sizes = data.map { r =>
        sizeByRddId.getOrElseUpdate(r.id, {
          if (r.getStorageLevel == StorageLevel.NONE) persisted += r.persist(StorageLevel.MEMORY_AND_DISK)
          r.count()
        })
      }
      val rels = query.atoms.indices.map { i =>
        Rel(query.atoms(i).name, query.atoms(i).attrs.map(query.attrId), data(i), sizes(i))
      }.toVector

      val tOpt0 = System.nanoTime()
      val (plan, shares, groups) = cfg.strategy match {
        case CoOptimization     => coOptimize(spark, query, rels, budget, cfg)
        case CommunicationFirst => communicationFirst(query, rels, budget, cfg)
      }
      val optSec = (System.nanoTime() - tOpt0) / 1e9
      executePlan(spark, query, rels, groups, plan, shares, budget, optSec)
    } finally persisted.foreach(_.unpersist(blocking = false))
  }

  /** The paper's plan: GHD, sampling-based cost model, Algorithm 2. Returns
    * the plan, the shares of the rewritten query, and the hypernodes' atom
    * groups.
    */
  private def coOptimize(spark: SparkSession, query: Hypergraph, rels: Vector[Rel], budget: Int,
      cfg: Config): (Plan, Shares.Result, Seq[Vector[Int]]) = {
    val tree    = GHD.decompose(query)
    Console.err.println(s"[adj] tree: $tree")
    val sampler = new Sampler(spark, rels, samples = cfg.samples)
    val model   = new CostModel(spark, query, tree, sampler, rels.map(_.size),
      numServers = budget, cubeBudget = budget, memoryTuples = cfg.memoryTuples)
    model.alpha; model.betaPre // force calibration inside the optimization phase
    val plan    = new Optimizer(model).optimize()
    val shares  = model.shares(plan.preCompute)
    Console.err.println(f"[adj] plan: $plan shares=$shares " +
      f"alpha=${model.alpha}%.3g betaRaw=${model.betaRaw}%.3g betaPre=${model.betaPre}%.3g")
    (plan, shares, tree.nodes.map(_.atomIdxs))
  }

  /** HCubeJ's plan: shares over the raw relations, one group per atom, no
    * pre-computation.
    */
  private def communicationFirst(query: Hypergraph, rels: Vector[Rel], budget: Int,
      cfg: Config): (Plan, Shares.Result, Seq[Vector[Int]]) = {
    val shares = Shares.optimize(
      rels.map(r => (r.attrs.toSet, r.size)), query.numAttrs, budget, cfg.memoryTuples)
    // HCubeJ selects its attribute order from ALL n! orders using sketch-style
    // statistics that are computation-oblivious and unreliable on cyclic
    // joins (this paper's Sec. IV, Fig. 8: "All-Selected" tracks the worst
    // valid order). We model that with the query's textual attribute order —
    // for Q4–Q6 an *invalid* order w.r.t. the hypertree, which defers chord
    // constraints and inflates the intermediate T^i exactly as Fig. 8 shows.
    val plan = Plan(Set.empty, Vector.empty, (0 until query.numAttrs).toArray, 0.0)
    (plan, shares, query.atoms.indices.map(Vector(_)))
  }

  /** Executes a plan for either strategy: pre-computes the bags of the
    * chosen multi-atom groups, then runs the final one-round join over the
    * bags and the remaining atoms, in group order.
    */
  private def executePlan(spark: SparkSession, query: Hypergraph, rels: Vector[Rel],
      groups: Seq[Vector[Int]], plan: Plan, shares: Shares.Result, budget: Int,
      optSec: Double): (RDD[Array[Long]], Report) = {
    // Pre-compute the chosen bags with the one-round executor itself; each
    // bag is persisted so the final join's shuffle reads it without a rerun.
    val tPre0 = System.nanoTime()
    val bagRdds = collection.mutable.ArrayBuffer.empty[RDD[Array[Long]]]
    val finalRels = groups.indices.flatMap { v =>
      val atomIdxs = groups(v)
      if (plan.preCompute.contains(v) && atomIdxs.length > 1) {
        // The bag sub-join gets its own connected attribute order: the
        // global plan order is chosen against the whole query's constraints
        // and can leave a bag attribute unconstrained for several levels.
        val subOrd = Optimizer.connectedOrder(atomIdxs.map(query.edges))
        val (rdd0, subT, _) = MultiwayJoin.executeOptimized(
          spark, atomIdxs.map(rels), subOrd, query.numAttrs, budget)
        // One count both materializes the bag and gives its size.
        val rdd  = rdd0.persist(StorageLevel.MEMORY_AND_DISK)
        val size = rdd.count()
        bagRdds += rdd
        Console.err.println(s"[adj] precomputed bag$v: $size tuples " +
          f"(comm=${subT.communicationSec}%.1fs comp=${subT.computationSec}%.1fs)")
        // The executor emits bag tuples in ascending attribute-id order.
        Seq(Rel(s"bag$v", subOrd.sorted.toVector, rdd, size))
      } else atomIdxs.map(rels)
    }
    val preSec = if (bagRdds.isEmpty) 0.0 else (System.nanoTime() - tPre0) / 1e9

    // The final join's shuffle has read the bags once this returns.
    val (result, t) = MultiwayJoin.execute(spark, finalRels, plan.ord, shares.p)
    bagRdds.foreach(_.unpersist(blocking = false))
    (result, Report(optSec, preSec, plan, shares.shuffledTuples, t))
  }

  // ---------------------------------------------------------------- adapters

  /** Binds every atom of a subgraph query to the same graph (columns
    * (src, dst)) and returns the result as a DataFrame with the query's
    * attribute names — the experiment setup of Sec. VII-A. As with [[run]],
    * the report's computation figures fill in as the DataFrame is consumed.
    */
  def runOnGraph(
      spark: SparkSession,
      query: Hypergraph,
      graph: DataFrame,
      cfg: Config = Config(),
  ): (DataFrame, Report) = {
    val edgeRdd = graph.rdd.map(r => Array(r.getLong(0), r.getLong(1)))
    val (rdd, report) = run(spark, query, Vector.fill(query.numAtoms)(edgeRdd), cfg)
    (toDf(spark, rdd, query.attributes), report)
  }

  /** Wraps a result RDD as a DataFrame with the given column names. */
  def toDf(spark: SparkSession, rdd: RDD[Array[Long]], names: Seq[String]): DataFrame = {
    val schema = StructType(names.map(StructField(_, LongType, nullable = false)))
    spark.createDataFrame(rdd.map(t => Row.fromSeq(t.toSeq)), schema)
  }
}
