package repro.core.adj

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, StageInfo}
import org.apache.spark.storage.StorageLevel

import repro.{Oracle, SparkSpec}
import repro.baselines.SparkSqlJoin
import repro.core.{SparkTestData, TestHelpers}
import repro.core.hcube.Shares
import repro.core.hypergraph.QueryLibrary

class AdjSpec extends SparkSpec {

  private val smallCfg = Adj.Config(samples = 60, cubeBudget = Some(8))

  /** Records each job's result stage (the job's highest stage id). */
  private final class ResultStages extends SparkListener {
    private val stages = ArrayBuffer.empty[StageInfo]
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      stages += e.stageInfos.maxBy(_.stageId)
    }
    /** Result stages so far that ran a trie build and Leapfrog. */
    def leapfrog(): Seq[StageInfo] = {
      TestListenerBus.drain(spark.sparkContext)
      synchronized(stages.filter(_.rddInfos.exists(_.name == "leapfrog")).toVector)
    }
  }

  private def withResultStages(body: ResultStages => Unit): Unit = {
    val rec = new ResultStages
    spark.sparkContext.addSparkListener(rec)
    try body(rec)
    finally spark.sparkContext.removeSparkListener(rec)
  }

  test("co-optimized ADJ matches the oracle on every reported query") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 31)
    val gdf = SparkTestData.graphDf(spark, g)
    for ((name, q) <- QueryLibrary.reported) {
      val (df, report) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"), "e" -> gdf)
      assert(report.totalSec > 0, s"$name: $report")
    }
  }

  test("communication-first ADJ (HCubeJ) matches the oracle on every reported query") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 32)
    val gdf = SparkTestData.graphDf(spark, g)
    for ((name, q) <- QueryLibrary.reported) {
      val (df, report) = Adj.runOnGraph(spark, q, gdf,
        smallCfg.copy(strategy = Adj.CommunicationFirst))
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"), "e" -> gdf)
      assert(report.preComputingSec == 0.0, s"$name pre-computed under HCubeJ: $report")
      assert(report.plan.preCompute.isEmpty)
      assert(report.plan.ord.toSeq == (0 until q.numAttrs), s"$name: ${report.plan}")
      val raw = q.edges.map(e => (e, g.length.toLong))
      assert(report.shuffledTuples == Shares.optimize(raw, q.numAttrs, 8).shuffledTuples, name)
    }
  }

  test("both strategies agree on the easy queries Q7-Q11") {
    val g = TestHelpers.randomGraph(nodes = 10, edges = 18, seed = 34)
    val gdf = SparkTestData.graphDf(spark, g)
    for ((name, q) <- QueryLibrary.all if name.drop(1).toInt >= 7) {
      val (a, _) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      val (b, _) = Adj.runOnGraph(spark, q, gdf, smallCfg.copy(strategy = Adj.CommunicationFirst))
      assert(a.collect().map(_.toSeq).toSet == b.collect().map(_.toSeq).toSet, name)
    }
  }

  test("skewed graphs are handled correctly end to end") {
    val g = TestHelpers.skewedGraph(nodes = 40, edges = 120, seed = 35)
    val gdf = SparkTestData.graphDf(spark, g)
    for (q <- Seq(QueryLibrary.q1, QueryLibrary.q5)) {
      val (df, _) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      Oracle.assertEquivalent(df, SparkSqlJoin.sql(q, "e"), "e" -> gdf)
    }
  }

  test("the report accounts for all pipeline stages") {
    val g = TestHelpers.randomGraph(nodes = 14, edges = 30, seed = 36)
    val gdf = SparkTestData.graphDf(spark, g)
    val (df, report) = Adj.runOnGraph(spark, QueryLibrary.q4, gdf, smallCfg)
    df.count() // the computation runs in the consuming job
    assert(report.optimizationSec > 0)
    assert(report.communicationSec > 0)
    assert(report.computationSec > 0)
    assert(report.preComputingSec >= 0)
    assert(math.abs(report.totalSec - (report.optimizationSec + report.preComputingSec +
      report.communicationSec + report.computationSec)) < 1e-9)
    assert(report.shuffledTuples > 0)
  }

  test("one consumption runs the final join's trie build and Leapfrog once") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 39)
    val q = QueryLibrary.q4
    withResultStages { rec =>
      val (result, _) = Adj.run(spark, q, Vector.fill(q.numAtoms)(spark.sparkContext.parallelize(g, 4)),
        smallCfg.copy(strategy = Adj.CommunicationFirst))
      assert(rec.leapfrog().isEmpty)
      result.count()
      assert(rec.leapfrog().map(_.numTasks) == Seq(result.getNumPartitions))
    }
  }

  test("the report's result count is the consumed count and survives a second consumption") {
    val g = TestHelpers.randomGraph(nodes = 16, edges = 40, seed = 40)
    val q = QueryLibrary.q4
    val (result, report) = Adj.run(spark, q, Vector.fill(q.numAtoms)(spark.sparkContext.parallelize(g, 4)),
      smallCfg)
    assert(report.resultCount == 0 && report.computationSec == 0.0, "nothing consumed yet")
    val n = result.count()
    assert(n > 0)
    assert(report.resultCount == n)
    assert(report.levelCounts.length == q.numAttrs && report.levelCounts.last == n)
    assert(report.computationSec > 0)
    assert(result.collect().length == n)
    assert(report.resultCount == n)
    assert(report.levelCounts.last == n)
  }

  test("a pre-computed bag's join runs once") {
    val g = TestHelpers.randomGraph(nodes = 20, edges = 60, seed = 1)
    val q = QueryLibrary.q5
    withResultStages { rec =>
      val (result, report) = Adj.run(spark, q,
        Vector.fill(q.numAtoms)(spark.sparkContext.parallelize(g, 4)), smallCfg)
      val bags = report.plan.preCompute.size
      assert(bags > 0, s"no bag pre-computed: $report")
      assert(rec.leapfrog().length == bags)
      val n = result.count()
      assert(rec.leapfrog().length == bags + 1)
      assert(n == TestHelpers.naiveJoin(q, TestHelpers.bindGraph(q, g)).size)
    }
  }

  test("the plan's attribute order covers every attribute exactly once") {
    val g = TestHelpers.randomGraph(nodes = 12, edges = 26, seed = 37)
    val gdf = SparkTestData.graphDf(spark, g)
    for (q <- Seq(QueryLibrary.q2, QueryLibrary.q4, QueryLibrary.q6)) {
      val (_, report) = Adj.runOnGraph(spark, q, gdf, smallCfg)
      assert(report.plan.ord.sorted.toSeq == (0 until q.numAttrs))
    }
  }

  test("empty graph produces empty results without failure") {
    val gdf = SparkTestData.graphDf(spark, Seq.empty)
    val (df, _) = Adj.runOnGraph(spark, QueryLibrary.q1, gdf, smallCfg)
    assert(df.count() == 0)
  }

  test("run keeps the caller's storage level and unpersists only what it persisted") {
    val g   = TestHelpers.randomGraph(nodes = 14, edges = 32, seed = 38)
    val gdf = SparkTestData.graphDf(spark, g)
    val q   = QueryLibrary.q4
    val sc  = spark.sparkContext

    val cached = sc.parallelize(g, 4).cache()
    val (a, _) = Adj.run(spark, q, Vector.fill(q.numAtoms)(cached), smallCfg)
    Oracle.assertEquivalent(Adj.toDf(spark, a, q.attributes), SparkSqlJoin.sql(q, "e"), "e" -> gdf)
    assert(cached.getStorageLevel == StorageLevel.MEMORY_ONLY)
    cached.unpersist(blocking = true)

    val before = sc.getPersistentRDDs.keySet
    val (b, _) = Adj.run(spark, q, Vector.fill(q.numAtoms)(sc.parallelize(g, 4)), smallCfg)
    assert(b.count() == a.count())
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("run rejects mismatched data arity") {
    val rdd = spark.sparkContext.parallelize(Seq(Array(1L, 2L)))
    intercept[IllegalArgumentException] {
      Adj.run(spark, QueryLibrary.q1, Vector(rdd), smallCfg)
    }
  }
}
