package repro.perfbench

import scala.collection.mutable
import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler._

/** Engine counters gathered from Spark's listener bus.
  *
  * Only registered for the traced run, so untimed runs pay no listener cost.
  * [[snapshot]] drains the bus first: events of a finished call are then
  * all counted, and none of them leak into the next call's deltas.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters.Snap

  private var jobs = 0L
  private var stages = 0L
  private var tasks = 0L
  private var shuffleBytes = 0L
  private var shuffleRecords = 0L
  private var runMs = 0L
  private var cpuNs = 0L
  private var gcMs = 0L
  // (launch, finish) wall-clock milliseconds of every finished task
  private val intervals = mutable.ArrayBuffer.empty[(Long, Long)]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val info = e.taskInfo
    if (info != null) intervals += ((info.launchTime, info.finishTime))
    val m = e.taskMetrics
    if (m != null) {
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
    }
  }

  def snapshot(): Snap = {
    ListenerDrain(sc)
    synchronized {
      Snap(System.currentTimeMillis(), jobs, stages, tasks, shuffleBytes,
           shuffleRecords, runMs, cpuNs, gcMs, intervals.size)
    }
  }

  /** Milliseconds of [from.wallMs, to.wallMs] during which at least one task
    * that finished in that window was running.
    */
  def busyMs(from: Snap, to: Snap): Long = {
    val iv = synchronized(intervals.slice(from.intervals, to.intervals).toVector)
    Tracer.covered(iv.map { case (s, e) => (math.max(s, from.wallMs), math.min(e, to.wallMs)) })
  }
}

object SparkCounters {
  final case class Snap(wallMs: Long, jobs: Long, stages: Long, tasks: Long,
                        shuffleBytes: Long, shuffleRecords: Long, runMs: Long,
                        cpuNs: Long, gcMs: Long, intervals: Int) {
    def -(o: Snap): Snap = Snap(wallMs - o.wallMs, jobs - o.jobs, stages - o.stages,
      tasks - o.tasks, shuffleBytes - o.shuffleBytes, shuffleRecords - o.shuffleRecords,
      runMs - o.runMs, cpuNs - o.cpuNs, gcMs - o.gcMs, intervals - o.intervals)
    def shuffleMb: Double = shuffleBytes / 1e6
  }

  def register(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters(sc)
    sc.addSparkListener(c)
    c
  }
}
