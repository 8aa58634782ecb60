package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.core.adj.{CostModel, Optimizer}
import repro.core.exec.MultiwayJoin
import repro.core.ghd.GHD
import repro.core.hcube.{HCube, Rel, Shares}
import repro.core.hypergraph.Hypergraph
import repro.core.lftj.{Leapfrog, LeapfrogStats, TrieRelation}
import repro.core.sampling.Sampler

/** The traced run's direct calls into single layers, each timed from
  * outside around a public function, on the workload's own inputs and the
  * plan its last query chose.
  */
object Layers {

  /** What the benchmark knows of a query's plan: the bags pre-computed and
    * the Leapfrog attribute order.
    */
  final case class PlanKey(pre: Set[Int], ord: Seq[Int])

  private def medianMs(reps: Int)(body: => Unit): Double =
    Stats.median((1 to reps).map { _ =>
      val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e6
    })

  /** @param edges   the graph's tuples (src, dst), bound to every atom
    * @param edgeRdd the same tuples as the RDD the workload queries
    * @param samples the sampling budget the workload's optimizer uses
    */
  def measure(
      spark: SparkSession,
      query: Hypergraph,
      edges: Array[Array[Long]],
      edgeRdd: RDD[Array[Long]],
      samples: Int,
      plan: PlanKey,
  ): Map[String, Double] = {
    val budget  = math.max(2, spark.sparkContext.defaultParallelism)
    val n       = query.numAttrs
    val rels    = query.atoms.indices.map(i => Rel(query.atoms(i).name,
      query.atoms(i).attrs.map(query.attrId), edgeRdd, edges.length.toLong)).toVector
    val schemas = rels.map(r => (r.attrs.toSet, r.size))

    val tree = GHD.decompose(query)
    val decomposeMs = medianMs(5)(GHD.decompose(query))
    val sharesMs    = medianMs(5)(Shares.optimize(schemas, n, budget))

    // Sampler.estimateJoin on every multi-atom bag, with the driver-side
    // collect done beforehand so only the estimate is timed.
    val bags = tree.nodes.filter(_.atomIdxs.length > 1)
    var sampler: Sampler = null
    val estimateMs = Stats.median((1 to 3).map { _ =>
      sampler = new Sampler(spark, rels, samples = samples)
      sampler.estimateJoin(rels(0).attrs.toSet, Seq(0))
      val t0 = System.nanoTime()
      bags.foreach(b => sampler.estimateJoin(b.attrs, b.atomIdxs))
      (System.nanoTime() - t0) / 1e6
    })

    // The final join's inputs and shares, rebuilt as Adj builds them: each
    // pre-computed bag joined by the program's executor in its own connected order.
    val model = new CostModel(spark, query, tree, sampler, rels.map(_.size), budget, budget)
    val finalShares = model.shares(plan.pre)
    val inputs: Seq[(Vector[Int], Array[Array[Long]])] = tree.nodes.indices.flatMap { v =>
      val node = tree.nodes(v)
      if (plan.pre.contains(v) && node.atomIdxs.length > 1) {
        val ord = Optimizer.connectedOrder(node.atomIdxs.map(query.edges))
        val bag = MultiwayJoin.executeOptimized(spark, node.atomIdxs.map(rels), ord, n, budget)._1.collect()
        Seq((node.attrs.toVector.sorted, bag))
      } else node.atomIdxs.map(i => (rels(i).attrs, edges))
    }

    // HCube.cubesFor over every input tuple, counting tuples per cube.
    val p        = finalShares.p
    val perCube  = new Array[Long](p.product)
    var calls    = 0L
    val tCubes0  = System.nanoTime()
    inputs.foreach { case (attrs, rows) =>
      rows.foreach { t => HCube.cubesFor(attrs, t, p).foreach(c => perCube(c) += 1); calls += 1 }
    }
    val cubesForNs = (System.nanoTime() - tCubes0).toDouble / math.max(1L, calls)

    // Trie build and Leapfrog on the largest cube's blocks, in the plan's order.
    val big    = perCube.indices.maxBy(perCube(_))
    val blocks = inputs.map { case (attrs, rows) =>
      (attrs, rows.filter(t => HCube.cubesFor(attrs, t, p).contains(big)))
    }
    val lvl    = plan.ord.zipWithIndex.toMap
    val tTrie0 = System.nanoTime()
    val tries  = blocks.map { case (attrs, rows) => TrieRelation.build(attrs, lvl, rows.toSeq) }.toIndexedSeq
    val trieMs = (System.nanoTime() - tTrie0) / 1e6
    val stats  = new LeapfrogStats(n)
    val tLf0   = System.nanoTime()
    new Leapfrog(tries, n, stats = stats).countAll()
    val leapfrogMs = (System.nanoTime() - tLf0) / 1e6

    Map(
      "ghd.decompose_ms"     -> decomposeMs,
      "hcube.shares_ms"      -> sharesMs,
      "sampling.estimate_ms" -> estimateMs,
      "adj.alpha"            -> CostModel.measuredAlpha(spark),
      "adj.beta_raw"         -> sampler.betaRaw,
      "adj.beta_pre"         -> CostModel.measuredBetaPre(),
      "hcube.dup_factor"     -> Shares.shuffledTuples(inputs.map { case (a, r) => (a.toSet, r.length.toLong) }, p) /
                                  inputs.map(_._2.length.toDouble).sum,
      "hcube.cubes_for_ns"   -> cubesForNs,
      "lftj.trie_build_ms"   -> trieMs,
      "lftj.leapfrog_ms"     -> leapfrogMs,
      "lftj.extensions"      -> stats.extensions.toDouble,
      "lftj.level_counts"    -> stats.levelCounts.max.toDouble,
    ) ++ stats.levelCounts.indices.map(i => s"lftj.level_count.$i" -> stats.levelCounts(i).toDouble)
  }
}
