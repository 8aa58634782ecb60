package perfbench

import java.nio.file.{Files, Path}

import org.json4s._
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}

/** The traced run's per-layer figures: from the `Adj.Report` of each traced
  * query, from the benchmark's spans, from the Spark jobs and stages those
  * spans launched (attributed to a layer by call site), and from the direct
  * layer calls of [[Layers]]. Per-query figures are medians over the traced
  * queries.
  */
final case class LayerReport(metrics: Seq[(String, Double, String)], extra: JObject)

object LayerReport {

  /** name -> unit, in the order BENCHMARK.json lists them. */
  val units: Seq[(String, String)] = Seq(
    "adj.optimization_s" -> "s", "adj.precompute_s" -> "s", "adj.communication_s" -> "s",
    "adj.computation_s" -> "s", "adj.consume_s" -> "s", "adj.plan_changes" -> "count",
    "adj.alpha" -> "1/s", "adj.beta_raw" -> "1/s", "adj.beta_pre" -> "1/s", "adj.input_jobs" -> "count",
    "sampling.collect_s" -> "s", "sampling.estimate_ms" -> "ms",
    "ghd.decompose_ms" -> "ms", "hcube.shares_ms" -> "ms",
    "hcube.map_stage_s" -> "s", "hcube.shuffle_records" -> "count", "hcube.dup_factor" -> "ratio",
    "hcube.cubes_for_ns" -> "ns",
    "exec.join_stage_s" -> "s", "exec.cube_skew" -> "ratio", "exec.gc_s" -> "s",
    "lftj.trie_build_ms" -> "ms", "lftj.leapfrog_ms" -> "ms", "lftj.extensions" -> "count",
    "lftj.level_counts" -> "count",
    "catalyst.plan_s" -> "s", "catalyst.deliver_s" -> "s", "catalyst.retained_rdds" -> "count",
    "trace.query_s_p50" -> "s", "trace.overhead_s" -> "s",
  )

  def apply(w: Workload, probe: Probe, tracer: Tracer, warmups: Seq[QueryStat], timed: Vector[QueryStat],
            direct: Map[String, Double]): LayerReport = {
    val traced   = timed.filter(_.traced)
    val untraced = timed.filter(!_.traced)
    def med(f: QueryStat => Double): Double = Stats.median(traced.map(f))
    def plan(f: PlanInfo => Double)(q: QueryStat): Double = q.plan.map(f).getOrElse(0.0)
    def span(name: String)(q: QueryStat): Double = tracer.of(q.tag, name).map(_.sec).getOrElse(0.0)
    def jobs(q: QueryStat, layer: String) = probe.jobsOf(q.tag).filter(probe.layer(_) == layer)
    def stages(q: QueryStat, layer: String) = jobs(q, layer).flatMap(j => probe.stagesOf(j.id))
    def skew(q: QueryStat): Double =
      jobs(q, "exec").lastOption.flatMap(j => probe.stagesOf(j.id).lastOption).map { s =>
        val t = s.taskMs.map(_.toDouble).toSeq
        if (t.isEmpty || Stats.median(t) <= 0) 0.0 else t.max / Stats.median(t)
      }.getOrElse(0.0)
    val fingerprints = (warmups ++ timed).map(_.plan.map(_.fingerprint))
    val changes      = fingerprints.sliding(2).count(p => p.length == 2 && p(0) != p(1))
    val sqlOnly      = (f: QueryStat => Double) => if (w.sql) med(f) else 0.0

    val fromQueries = Map(
      "adj.optimization_s"  -> med(plan(_.optSec)),
      "adj.precompute_s"    -> med(plan(_.preSec)),
      "adj.communication_s" -> med(plan(_.commSec)),
      "adj.computation_s"   -> med(plan(_.compSec)),
      "adj.consume_s"       -> med(span("consume")),
      "adj.plan_changes"    -> changes.toDouble,
      "adj.input_jobs"      -> med(q => probe.jobsOf(q.tag).count(j => j.file == "Adj.scala" || j.file == "Sampler.scala").toDouble),
      "sampling.collect_s"  -> med(q => stages(q, "sampling").map(_.sec).sum),
      "hcube.map_stage_s"   -> med(q => stages(q, "hcube").filter(_.isMap).map(_.sec).sum),
      "hcube.shuffle_records" -> med(q => stages(q, "hcube").map(_.shuffleRecords).sum.toDouble),
      "exec.join_stage_s"   -> med(q => stages(q, "exec").map(_.sec).sum),
      "exec.cube_skew"      -> med(skew),
      "exec.gc_s"           -> med(q => stages(q, "exec").map(_.gcMs).sum / 1e3),
      "catalyst.plan_s"     -> sqlOnly(span("catalyst.plan")),
      "catalyst.deliver_s"  -> sqlOnly(q => stages(q, "consume").map(_.sec).sum),
      "catalyst.retained_rdds" -> sqlOnly(_.retainedRdds.toDouble),
      "trace.query_s_p50"   -> med(_.wallSec),
      "trace.overhead_s"    -> (med(_.wallSec) - Stats.median(untraced.map(_.wallSec))),
    )
    val all = fromQueries ++ direct
    val metrics = units.map { case (n, u) => (n, all.getOrElse(n, 0.0), u) }
    // The benchmark's call and consume spans against the untraced wall time.
    val parts = Seq("catalyst.plan", "call", "consume")
    val extra =
      ("spans_s_p50" -> med(q => parts.map(p => span(p)(q)).sum)) ~
      ("untraced_query_s_p50" -> Stats.median(untraced.map(_.wallSec))) ~
      ("lftj.level_count" -> direct.toSeq.filter(_._1.startsWith("lftj.level_count.")).sortBy(_._1).map(_._2)) ~
      ("plans" -> fingerprints.map(_.fold[JValue](JNull)(f =>
        ("pre" -> f._1.toSeq.sorted) ~ ("ord" -> f._2) ~ ("shuffled_tuples" -> f._3))))
    LayerReport(metrics, extra)
  }

  /** Writes the run's spans (benchmark spans, and the Spark jobs and stages
    * of the traced queries beneath them) and its per-layer summary.
    */
  def write(file: Path, info: JObject, r: LayerReport, tracer: Tracer, probe: Probe,
            timed: Vector[QueryStat], epoch0: Long, t0: Long): Unit = {
    def ms(ns: Long): Double = (ns - t0) / 1e6
    def epochMs(m: Long): Double = (m - epoch0).toDouble
    val bench = tracer.all.map(s => ("id" -> s.id) ~ ("parent" -> s.parent) ~ ("query" -> s.query) ~
      ("name" -> s.name) ~ ("start_ms" -> ms(s.startNs)) ~ ("end_ms" -> ms(s.endNs)))
    val spark = timed.filter(_.traced).flatMap { q =>
      probe.jobsOf(q.tag).flatMap { j =>
        val jobId = 1000000L + j.id
        (("id" -> jobId) ~ ("parent" -> j.span) ~ ("query" -> q.tag) ~ ("name" -> s"job ${j.callSite}") ~
          ("layer" -> probe.layer(j)) ~ ("start_ms" -> epochMs(j.startMs)) ~ ("end_ms" -> epochMs(j.endMs))) +:
          probe.stagesOf(j.id).map(s => ("id" -> (2000000L + s.id)) ~ ("parent" -> jobId) ~ ("query" -> q.tag) ~
            ("name" -> s"stage ${s.name}${if (s.isMap) " (map)" else ""}") ~ ("tasks" -> s.taskMs.length) ~
            ("start_ms" -> epochMs(s.submitMs)) ~ ("end_ms" -> epochMs(s.completeMs)))
      }
    }
    Files.createDirectories(file.getParent)
    Files.writeString(file, Json.line(("info" -> info) ~ ("per_layer" -> Json.metrics(r.metrics)) ~
      ("extra" -> r.extra) ~ ("spans" -> (bench ++ spark))) + "\n")
  }
}

object Json {
  def line(v: JValue): String = compact(render(v))

  /** name -> {value, unit}, as the result line and the trace summary print them. */
  def metrics(ms: Seq[(String, Double, String)]): JObject =
    JObject(ms.map { case (n, v, u) => n -> (("value" -> v) ~ ("unit" -> u)) }.toList)
}
