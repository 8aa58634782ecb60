package perfbench

import java.nio.file.{Files, Path, Paths}

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.{LoggerConfig, Property}
import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.json4s._
import org.json4s.JsonDSL._

import repro.baselines.SparkSqlJoin
import repro.bench.Harness
import repro.core.adj.Adj
import repro.core.catalyst.{AdjJoinExec, AdjStrategy}
import repro.core.hypergraph.{Hypergraph, QueryLibrary}
import repro.data.GraphData

object Stats {
  def median(xs: Iterable[Double]): Double = {
    val s = xs.toVector.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}

/** A benchmark workload: one graph, one query, one way into the program.
  * NOTES.md says why each was chosen. The graphs have half the vertices of
  * the GraphData specs, so that a run measures several queries.
  */
final case class Workload(name: String, spec: GraphData.Spec, queryName: String, strategy: Adj.Strategy, sql: Boolean) {
  def query: Hypergraph = QueryLibrary.all(queryName)
}

object Workload {
  private def half(s: GraphData.Spec): GraphData.Spec = s.copy(nodes = s.nodes / 2)

  val all: Seq[Workload] = Seq(
    Workload("lj-q6-coopt", half(GraphData.lj), "Q6", Adj.CoOptimization, sql = false),
    Workload("as-q4-sql", half(GraphData.as_), "Q4", Adj.CoOptimization, sql = true),
    Workload("wb-q5-commfirst", half(GraphData.wb), "Q5", Adj.CommunicationFirst, sql = false),
  )
}

/** The plan and per-phase seconds of one ADJ run (an `Adj.Report`). */
final case class PlanInfo(optSec: Double, preSec: Double, commSec: Double, compSec: Double,
                          pre: Set[Int], ord: Seq[Int], shuffledTuples: Option[Double]) {
  def fingerprint: (Set[Int], Seq[Int], Option[Double]) = (pre, ord, shuffledTuples)
}

object PlanInfo {
  def of(r: Adj.Report): PlanInfo =
    PlanInfo(r.optimizationSec, r.preComputingSec, r.communicationSec, r.computationSec,
      r.plan.preCompute, r.plan.ord.toSeq, Some(r.shuffledTuples))

  private val Times = """opt=([0-9.]+)s pre=([0-9.]+)s comm=([0-9.]+)s comp=([0-9.]+)s""".r.unanchored
  private val Shape = """Plan\(pre=\{([0-9,]*)\}, traversal=[^,]*, ord=([0-9,]+),""".r.unanchored

  /** Parses the report `AdjJoinExec` logs (`Report.toString`). */
  def parse(line: String): Option[PlanInfo] = (line, line) match {
    case (Times(o, p, c, x), Shape(pre, ord)) =>
      def ints(s: String) = s.split(",").filter(_.nonEmpty).map(_.toInt)
      Some(PlanInfo(o.toDouble, p.toDouble, c.toDouble, x.toDouble, ints(pre).toSet, ints(ord).toSeq, None))
    case _ => None
  }
}

/** Captures the `ADJ report: ...` line `AdjJoinExec` logs after each run:
  * the only place the SQL path exposes its report.
  */
object AdjReportLog {
  private val lines = new java.util.concurrent.ConcurrentLinkedQueue[String]()

  def install(): Unit = {
    val appender = new AbstractAppender("perfbench-adj-report", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit = lines.add(e.getMessage.getFormattedMessage)
    }
    appender.start()
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val cfg = new LoggerConfig(classOf[AdjJoinExec].getName, Level.INFO, false)
    cfg.addAppender(appender, Level.INFO, null)
    ctx.getConfiguration.addLogger(cfg.getName, cfg)
    ctx.updateLoggers()
  }

  /** The latest report line, clearing the buffer. */
  def take(): Option[String] = {
    var last: String = null
    var x = lines.poll()
    while (x != null) { last = x; x = lines.poll() }
    Option(last)
  }
}

/** What one query produced. `keep` holds the result RDD until the storage it
  * left behind has been read, so the driver cannot drop it earlier.
  */
final case class Done(result: Checksum, plan: Option[PlanInfo], keep: AnyRef)

final case class QueryStat(
    tag: String, traced: Boolean, wallSec: Double, ok: Boolean, error: Option[String],
    plan: Option[PlanInfo], cpuSec: Double, shuffleMb: Double, retainedMb: Double, retainedRdds: Int)

/** Runs one query of a workload, closed loop, from the call to the last row
  * consumed. `Adj.run` gets a fresh, unpersisted edge RDD each time, mapped
  * from the cached graph as `Adj.runOnGraph` does; the SQL path plans the
  * query text against the cached graph's view and consumes every
  * `InternalRow` of the executed plan.
  */
final class Runner(spark: SparkSession, w: Workload, graph: DataFrame, tracer: Tracer) {
  private val query   = w.query
  private val cfg     = Adj.Config(strategy = w.strategy)
  private val sqlText = SparkSqlJoin.sql(query, Main.EdgeView)

  def samples: Int = if (w.sql) Main.SqlSamples else cfg.samples

  def once(tag: String, traced: Boolean): Done = tracer.span(tag, "query", traced) {
    if (w.sql) {
      val df = tracer.span(tag, "catalyst.plan", traced) {
        val d = spark.sql(sqlText); d.queryExecution.executedPlan; d
      }
      val rdd = tracer.span(tag, "call", traced)(df.queryExecution.toRdd)
      val sum = tracer.span(tag, "consume", traced)(Checksum.ofRows(rdd, query.numAttrs))
      Done(sum, AdjReportLog.take().flatMap(PlanInfo.parse), rdd)
    } else {
      val edgeRdd = graph.rdd.map(r => Array(r.getLong(0), r.getLong(1)))
      val (res, report) = tracer.span(tag, "call", traced) {
        Adj.run(spark, query, Vector.fill(query.numAtoms)(edgeRdd), cfg)
      }
      val sum = tracer.span(tag, "consume", traced)(Checksum.ofTuples(res))
      Done(sum, Some(PlanInfo.of(report)), res)
    }
  }
}

object Main {
  val EdgeView      = "edges"
  /** AdjStrategy's default sampling budget, which the SQL path runs with;
    * used only for the traced run's direct Sampler calls.
    */
  val SqlSamples    = 200
  val QueryLimitSec = 100.0
  val GraphLoads    = 3
  val WarmupQueries = 2
  val TinyNodes     = 300

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        work: Path, tiny: Boolean, corruptReference: Boolean)

  private def parse(argv: Array[String]): Args = {
    val kv   = argv.sliding(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      Paths.get(need("work")), argv.contains("--tiny"), argv.contains("--corrupt-reference"))
  }

  /** The spec's graph with its tuples in an order drawn from `seed`, spread
    * over the same number of partitions as `GraphData.graph` uses. The seed
    * decides which input partition holds each tuple and in what order, not
    * the vertex ids: relabelling vertices moved hubs between hypercubes and
    * changed the sampler's draws and so the chosen plan, which swamped the
    * run-to-run spread (NOTES.md).
    */
  def shuffled(spark: SparkSession, spec: GraphData.Spec, seed: Long): DataFrame = {
    val g    = GraphData.graph(spark, spec)
    val rows = new scala.util.Random(seed).shuffle(g.collect().toVector)
    spark.createDataFrame(spark.sparkContext.parallelize(rows, g.rdd.getNumPartitions), g.schema)
  }

  private def sec(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val a  = parse(argv)
    val w  = Workload.all.find(_.name == a.workload).getOrElse {
      System.err.println(s"unknown workload ${a.workload}; one of ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val code =
      try run(a, w, t0)
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def run(a: Args, w: Workload, t0: Long): Int = {
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", a.work.resolve("spark-warehouse").toString)
      .getOrCreate()
    try measure(spark, a, w, t0)
    finally spark.stop()
  }

  private def measure(spark: SparkSession, a: Args, w: Workload, t0: Long): Int = {
    val epoch0 = System.currentTimeMillis() - (System.nanoTime() - t0) / 1000000
    val sc     = spark.sparkContext
    sc.setLogLevel("WARN")
    val probe  = new Probe
    sc.addSparkListener(probe)
    HeapWatch.install()
    if (w.sql) {
      spark.experimental.extraStrategies = spark.experimental.extraStrategies :+ AdjStrategy(spark)
      AdjReportLog.install()
    }
    val tracer     = new Tracer(sc)
    val sessionSec = sec(t0)

    // Set-up: graph generation and load (repeated; the median counts), the
    // reference lookup, and the warm-up queries (JIT, α calibration).
    val spec  = if (a.tiny) w.spec.copy(nodes = TinyNodes) else w.spec
    val loads = (1 to GraphLoads).map { _ =>
      val t = System.nanoTime()
      val g = shuffled(spark, spec, a.seed).cache()
      g.count()
      (g, sec(t))
    }
    loads.init.foreach(_._1.unpersist(blocking = true))
    val graph   = loads.last._1
    val loadSec = Stats.median(loads.map(_._2))
    graph.createOrReplaceTempView(EdgeView)
    val graphMb = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

    val tRef = System.nanoTime()
    val (ref0, refComputeSec) = Reference.lookup(a.work.resolve("ref"),
      s"${spec.name}-n${spec.nodes}-m${spec.m}-c${spec.closure}-s${spec.seed}-${w.queryName}", w.queryName, w.query,
      graph.collect().map(r => (r.getLong(0), r.getLong(1))), crossCheck = a.tiny)
    val refLookupSec = sec(tRef) - refComputeSec
    val ref = if (a.corruptReference) ref0.copy(sum = ref0.sum + 1) else ref0

    val runner = new Runner(spark, w, graph, tracer)
    def runQuery(tag: String, traced: Boolean): QueryStat = {
      val marker = sc.emptyRDD[Int].id
      val out = Harness.withBudget(spark, QueryLimitSec) {
        sc.setLocalProperty(Props.Query, tag)
        val t = System.nanoTime()
        val d = runner.once(tag, traced)
        (d, sec(t))
      }
      PerfbenchBus.drain(sc)
      val left   = sc.getRDDStorageInfo.filter(_.id > marker)
      val stages = probe.stagesOfQuery(tag)
      val stat = out match {
        case Right((d, wall)) =>
          QueryStat(tag, traced, wall, d.result == ref,
            if (d.result == ref) None else Some(s"got ${d.result}, reference $ref"), d.plan,
            stages.map(_.cpuNs).sum / 1e9, stages.map(_.shuffleBytes).sum / 1e6,
            left.map(i => i.memSize + i.diskSize).sum / 1e6, left.length)
        case Left(err) =>
          QueryStat(tag, traced, 0.0, ok = false, Some(err), None, 0, 0, 0, 0)
      }
      stat.error.foreach(e => System.err.println(s"perfbench: query $tag failed: $e"))
      System.gc()
      stat
    }

    val tWarm   = System.nanoTime()
    val warmups = (1 to WarmupQueries).map(i => runQuery(s"warmup$i", traced = false))
    val setupSec = sessionSec + loadSec + refLookupSec + sec(tWarm)

    // The timed closed loop: the next query starts when the previous result
    // is fully consumed. A traced run alternates traced and untraced queries.
    HeapWatch.active = true
    val deadline = System.nanoTime() + (a.seconds * 1e9).toLong
    val timed    = collection.mutable.ArrayBuffer.empty[QueryStat]
    val minRuns  = if (a.trace) 2 else 1
    while (timed.length < minRuns || (System.nanoTime() < deadline && !a.tiny)) {
      val q = runQuery(s"q${timed.length}", traced = a.trace && timed.length % 2 == 0)
      timed += q
    }
    HeapWatch.active = false

    val attempted = timed.length
    val failed    = timed.count(!_.ok)
    val good      = timed.filter(_.ok)
    val basis     = if (good.nonEmpty) good else timed
    val untraced  = basis.filter(!_.traced)
    val env =
      ("nproc" -> Runtime.getRuntime.availableProcessors) ~
      ("heap_max_mb" -> Runtime.getRuntime.maxMemory / 1e6) ~
      ("jdk" -> System.getProperty("java.version")) ~
      ("spark" -> spark.version)
    val info =
      ("workload" -> w.name) ~ ("seed" -> a.seed) ~ ("env" -> env) ~
      ("graph_tuples" -> graph.count()) ~ ("graph_mb" -> graphMb) ~
      ("reference" -> (("rows" -> ref0.rows) ~ ("checksum" -> ref0.sum) ~ ("compute_s" -> refComputeSec))) ~
      ("setup" -> (("session_s" -> sessionSec) ~ ("graph_load_s" -> loadSec) ~
        ("reference_lookup_s" -> refLookupSec) ~ ("warmup_s" -> (setupSec - sessionSec - loadSec - refLookupSec)) ~
        ("warmup_ok" -> warmups.forall(_.ok)))) ~
      ("queries" -> attempted) ~ ("failed_frac" -> failed.toDouble / attempted) ~
      ("query_s" -> timed.map(_.wallSec)) ~ ("traced" -> timed.map(_.traced)) ~
      ("plans" -> (warmups ++ timed).map(_.plan.fold[JValue](JNull)(p => ("pre" -> p.pre.toSeq.sorted) ~
        ("ord" -> p.ord) ~ ("opt_s" -> p.optSec) ~ ("pre_s" -> p.preSec) ~ ("comm_s" -> p.commSec) ~
        ("comp_s" -> p.compSec))))
    println(Json.line(info))

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) Seq(
        ("query_s_p50", Stats.median(untraced.map(_.wallSec)), "s"),
        ("cpu_s_per_query", Stats.median(untraced.map(_.cpuSec)), "s"),
        ("shuffle_mb_per_query", Stats.median(untraced.map(_.shuffleMb)), "MB"),
        ("retained_storage_mb", graphMb + timed.last.retainedMb, "MB"),
        ("heap_peak_mb", HeapWatch.peakMb, "MB"),
        ("setup_s", setupSec, "s"),
      )
      else {
        val edges = graph.collect().map(r => Array(r.getLong(0), r.getLong(1)))
        val layers = LayerReport(w, probe, tracer, warmups, timed.toVector, Layers.measure(spark, w.query, edges,
          graph.rdd.map(r => Array(r.getLong(0), r.getLong(1))), runner.samples,
          timed.flatMap(_.plan).lastOption.map(p => Layers.PlanKey(p.pre, p.ord))
            .getOrElse(Layers.PlanKey(Set.empty, 0 until w.query.numAttrs))))
        LayerReport.write(a.work.resolve("trace").resolve(s"${w.name}-seed${a.seed}.json"),
          info, layers, tracer, probe, timed.toVector, epoch0, t0)
        layers.metrics
      }

    println(Json.line(
      ("correct" -> (failed == 0 && warmups.forall(_.ok))) ~
      ("attempted" -> attempted) ~
      ("failed" -> failed) ~
      ("metrics" -> Json.metrics(metrics))))
    0
  }
}
