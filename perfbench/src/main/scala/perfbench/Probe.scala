package perfbench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark local properties the benchmark sets on its query thread; every job
  * launched under them carries them to [[Probe]].
  */
object Props {
  val Query = "perfbench.query"
  val Span  = "perfbench.span"
}

/** One Spark job. `callSite` is Spark's short call site of the job ("count at
  * Adj.scala:84"), which names the program module that launched it.
  */
final class JobRec(val id: Int, val query: String, val span: Long, val callSite: String, val startMs: Long) {
  var endMs: Long = -1L
  def file: String = callSite.split(" at ").last.takeWhile(_ != ':')
}

/** One stage that ran, attributed to the first job that listed it. */
final class StageRec(val id: Int, val job: Int) {
  var name       = ""
  var isMap      = false
  var submitMs   = -1L
  var completeMs = -1L
  var cpuNs      = 0L
  var shuffleBytes   = 0L
  var shuffleRecords = 0L
  var gcMs       = 0L
  val taskMs     = mutable.ArrayBuffer.empty[Long]
  def ran: Boolean  = completeMs >= 0 && submitMs >= 0
  def sec: Double   = if (ran) (completeMs - submitMs) / 1e3 else 0.0
}

/** Records every job, stage and task of the run, keyed by the query that
  * launched it. Read it only after [[org.apache.spark.PerfbenchBus.drain]].
  */
final class Probe extends SparkListener {
  private val jobs   = mutable.LinkedHashMap.empty[Int, JobRec]
  private val stages = mutable.LinkedHashMap.empty[Int, StageRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    def prop(k: String): Option[String] = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
    // The result stage is created last, so it has the highest id; its name
    // is the job's call site.
    val site = if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name
    jobs(e.jobId) = new JobRec(e.jobId, prop(Props.Query).getOrElse(""),
      prop(Props.Span).map(_.toLong).getOrElse(0L), site, e.time)
    e.stageIds.foreach(s => if (!stages.contains(s)) stages(s) = new StageRec(s, e.jobId))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stages.get(info.stageId).foreach { s =>
      s.name = info.name
      s.submitMs = info.submissionTime.getOrElse(-1L)
      s.completeMs = info.completionTime.getOrElse(-1L)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stages.get(e.stageId).foreach { s =>
      val m = e.taskMetrics
      if (m != null) {
        s.cpuNs += m.executorCpuTime + m.executorDeserializeCpuTime
        s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        s.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
        s.gcMs += m.jvmGCTime
      }
      s.isMap = e.taskType == "ShuffleMapTask"
      s.taskMs += e.taskInfo.duration
    }
  }

  def jobsOf(query: String): Seq[JobRec] = synchronized(jobs.values.filter(_.query == query).toVector)

  /** The stages of a job that actually ran (a reused shuffle's map stage is skipped). */
  def stagesOf(job: Int): Seq[StageRec] = synchronized(stages.values.filter(s => s.job == job && s.ran).toVector)

  def stagesOfQuery(query: String): Seq[StageRec] = jobsOf(query).flatMap(j => stagesOf(j.id))

  /** The program layer a job belongs to, from the module that launched it. */
  def layer(j: JobRec): String = j.file match {
    case "Adj.scala" | "CostModel.scala" => "adj"
    case "Sampler.scala"                 => "sampling"
    case "MultiwayJoin.scala"            => if (stagesOf(j.id).exists(_.isMap)) "hcube" else "exec"
    case _                               => "consume"
  }
}

/** Peak heap still live after each garbage collection while `active`. */
object HeapWatch {
  @volatile var active = false
  @volatile private var peak = 0L

  def install(): Unit = {
    val listener: NotificationListener = (n: Notification, _: AnyRef) =>
      if (active && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.values.asScala.map(_.getUsed).sum
        synchronized { if (used > peak) peak = used }
      }
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case em: NotificationEmitter => em.addNotificationListener(listener, null, null)
      case _                       =>
    }
  }

  def peakMb: Double = peak / 1e6
}

/** A timed interval of one query. `parent` is 0 for a query's root span. */
final case class Span(id: Long, parent: Long, query: String, name: String, startNs: Long, endNs: Long) {
  def sec: Double = (endNs - startNs) / 1e9
}

/** Times the benchmark's own calls into the program. When `traced`, the
  * span id is also handed to Spark as a local property, so the jobs a call
  * launches hang under its span.
  */
final class Tracer(sc: SparkContext) {
  private val spans   = mutable.ArrayBuffer.empty[Span]
  private var nextId  = 1L
  private val current = ThreadLocal.withInitial[Long](() => 0L)

  def span[T](query: String, name: String, traced: Boolean)(body: => T): T = {
    val id     = synchronized { nextId += 1; nextId - 1 }
    val parent = current.get
    current.set(id)
    if (traced) sc.setLocalProperty(Props.Span, id.toString)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      current.set(parent)
      if (traced) sc.setLocalProperty(Props.Span, if (parent == 0L) null else parent.toString)
      synchronized { spans += Span(id, parent, query, name, t0, t1) }
    }
  }

  def all: Seq[Span] = synchronized(spans.toVector)
  def of(query: String, name: String): Option[Span] = all.find(s => s.query == query && s.name == name)
}
