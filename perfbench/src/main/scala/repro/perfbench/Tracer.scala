package repro.perfbench

import scala.collection.mutable
import repro.perfbench.SparkCounters.Snap

/** In-memory spans around the benchmark's calls into each layer.
  *
  * A span has a name, start, end, the span open when it started (its
  * parent) and the engine-counter delta over its interval. Spans are kept
  * in memory and written out once, after the traced run.
  */
final class Tracer(counters: SparkCounters) {
  import Tracer.Span

  private val done = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[Int]
  private var nextId = 0
  private val t0 = System.nanoTime()

  def span[A](name: String)(body: => A): (A, Span) = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open.push(id)
    val c0 = counters.snapshot()
    val s0 = System.nanoTime()
    val a = try body finally open.pop()
    val s1 = System.nanoTime()
    val c1 = counters.snapshot()
    val sp = Span(id, name, parent, s0 - t0, s1 - t0, c0, c1)
    done += sp
    (a, sp)
  }

  def spans: Vector[Span] = done.sortBy(_.id).toVector

  /** Duration minus the part of it covered by direct children, seconds. */
  def selfSeconds(sp: Span): Double = {
    val kids = done.filter(_.parent == sp.id).map(k => (k.startNs, k.endNs)).toSeq
    (sp.endNs - sp.startNs - Tracer.covered(kids)) / 1e9
  }

  def toJson(workload: String, seed: Long): String = {
    val rows = spans.map { sp =>
      val d = sp.delta
      Json.obj(
        "id" -> Json.num(sp.id), "name" -> Json.str(sp.name),
        "parent" -> Json.num(sp.parent),
        "start_s" -> Json.num(sp.startNs / 1e9), "end_s" -> Json.num(sp.endNs / 1e9),
        "self_s" -> Json.num(selfSeconds(sp)),
        "jobs" -> Json.num(d.jobs), "stages" -> Json.num(d.stages),
        "tasks" -> Json.num(d.tasks), "shuffle_write_mb" -> Json.num(d.shuffleMb),
        "shuffle_records" -> Json.num(d.shuffleRecords))
    }
    Json.obj("workload" -> Json.str(workload), "seed" -> Json.num(seed),
             "spans" -> rows.mkString("[", ",", "]"))
  }
}

object Tracer {
  /** Total length of the union of [start, end) intervals. */
  def covered(xs: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = 0L
    var curE = Long.MinValue
    for ((s, e) <- xs.sortBy(_._1) if e > s) {
      if (s > curE) {
        total += math.max(0L, curE - curS)
        curS = s
        curE = e
      } else curE = math.max(curE, e)
    }
    total + math.max(0L, curE - curS)
  }

  final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long,
                        before: Snap, after: Snap) {
    def seconds: Double = (endNs - startNs) / 1e9
    def delta: Snap = after - before
  }
}

/** Minimal JSON rendering for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }
  def num(x: Long): String = x.toString
  def bool(b: Boolean): String = b.toString
  def obj(kv: (String, String)*): String =
    kv.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}
