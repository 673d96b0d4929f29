package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{LocalGraph, SubgraphHAC}
import repro.core.model.EdgeCtx
import repro.graph.GraphOps
import repro.partition.{AffinityPartitioner, Functional}

/** Replays round 1 of `TeraHAC.run` layer by layer through the public API
  * of each module, with a span around every call, so each layer's cost and
  * counts are measured where its work happens. Frames a call returns are
  * materialized inside its span; bookkeeping for the ratios runs outside.
  */
object Round1 {

  def replay(spark: SparkSession, w: Workload, in: Input, tr: Tracer): Vector[Metric] = {
    import spark.implicits._
    val edges = in.edges.select(col("src").cast("long").as("src"),
                                col("dst").cast("long").as("dst"),
                                col("w").cast("double").as("w")).localCheckpoint()
    val vertices = GraphOps.singletonVertices(spark, edges).localCheckpoint()
    val nV = vertices.count()
    val deg = in.local.iterator.flatMap { case (u, v, _) => Iterator(u, v) }
      .toVector.groupBy(identity).map { case (v, xs) => v -> xs.size.toLong }

    val (_, heavySp) = tr.span("GraphOps.heavyCount")(GraphOps.heavyCount(edges, w.t))

    // The partitioner's best-edge choice (max w, ties to the smaller
    // neighbor), i.e. the functional graph it hands to Functional.
    val best = edges.groupBy(col("src").as("id"))
      .agg(max(struct(col("w"), (-col("dst")).as("nd"), col("dst"))).as("m"))
      .select(col("id"), col("m.dst").as("to"))
    val (_, compSp) = tr.span("Functional.components")(
      Functional.components(best).localCheckpoint())

    val (cids, partSp) = tr.span("AffinityPartitioner.partition")(
      AffinityPartitioner.partition(edges, w.capEdges, salt = 43L).localCheckpoint())
    val cidOf = cids.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val bestOf = best.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val loads = cidOf.toVector.groupBy(_._2).map { case (_, vs) => vs.map(v => deg(v._1)).sum }
    val kept = bestOf.count { case (v, to) => cidOf(v) == cidOf(to) }

    // The per-group input exactly as TeraHAC ships it to SubgraphHAC.
    val vc = vertices.join(cids, "id")
    val srcM = vc.select(col("id").as("src"), col("size").as("srcSize"),
      col("minMerge").as("srcMinMerge"), col("minLeaf").as("srcMinLeaf"), col("cid"))
    val dstM = vc.select(col("id").as("dst"), col("size").as("dstSize"),
      col("minMerge").as("dstMinMerge"), col("minLeaf").as("dstMinLeaf"),
      col("cid").as("dstCid"))
    val groups = edges.join(srcM, "src").join(dstM, "dst")
      .select(col("cid"), col("src"), col("srcSize"), col("srcMinMerge"),
              col("srcMinLeaf"), col("dst"), col("dstSize"), col("dstMinMerge"),
              col("dstMinLeaf"), col("dstCid"), col("w"))
      .as[EdgeCtx].collect().groupBy(_.cid).toVector.sortBy(_._1)

    val (graphs, buildSp) = tr.span("LocalGraph.build") {
      groups.map { case (cid, es) =>
        val g = new LocalGraph
        for (e <- es) {
          g.ensureVertex(e.src, e.srcSize, e.srcMinMerge, e.srcMinLeaf, isActive = true)
          g.ensureVertex(e.dst, e.dstSize, e.dstMinMerge, e.dstMinLeaf,
                         isActive = e.dstCid == cid)
          g.addEdge(e.src, e.dst, e.w)
        }
        g
      }
    }
    var maxGroupNs = 0L
    val (results, kernelSp) = tr.span("SubgraphHAC.run") {
      graphs.map { g =>
        val s0 = System.nanoTime()
        val r = SubgraphHAC.run(g, w.eps)
        maxGroupNs = math.max(maxGroupNs, System.nanoTime() - s0)
        r
      }
    }
    val merges = results.map(_.merges.size / 2L).sum

    val assign = results.flatMap(_.assignment).toDF("id", "cid")
    val meta = results.flatMap(_.meta).map(m => (m.id, m.size, m.minMerge, m.minLeaf))
      .toDF("id", "size", "minMerge", "minLeaf")
    val (contracted, contractSp) = tr.span("GraphOps.contract")(
      GraphOps.contract(edges, vertices.select("id", "size"), assign,
                        newSizes = Some(meta.select("id", "size")))._1.localCheckpoint())
    val outEdges = contracted.count()

    // TeraHAC prunes only when t > 0; at t = 0 nothing is pruned.
    val (pruneS, keptFrac) =
      if (w.t > 0) {
        val (pruned, sp) = tr.span("GraphOps.prune")(
          GraphOps.prune(contracted, meta, w.t / (1.0 + w.eps))._1.localCheckpoint())
        (sp.seconds, if (outEdges == 0) 1.0 else pruned.count().toDouble / outEdges)
      } else (0.0, 1.0)

    Vector(
      Metric("AffinityPartitioner.s", partSp.seconds, "s"),
      Metric("AffinityPartitioner.jobs", partSp.delta.jobs, "count"),
      Metric("AffinityPartitioner.shuffle_mb", partSp.delta.shuffleMb, "MB"),
      Metric("AffinityPartitioner.groups", loads.size, "count"),
      Metric("AffinityPartitioner.max_group_load", loads.max, "edges"),
      Metric("AffinityPartitioner.best_edge_kept_frac", kept.toDouble / bestOf.size, "ratio"),
      Metric("Functional.s", compSp.seconds, "s"),
      Metric("Functional.jobs", compSp.delta.jobs, "count"),
      Metric("LocalGraph.build_s", buildSp.seconds, "s"),
      Metric("SubgraphHAC.s", kernelSp.seconds, "s"),
      Metric("SubgraphHAC.max_group_ms", maxGroupNs / 1e6, "ms"),
      Metric("SubgraphHAC.groups", groups.size, "count"),
      Metric("SubgraphHAC.merges", merges, "count"),
      Metric("SubgraphHAC.merge_frac", merges.toDouble / nV, "ratio"),
      Metric("GraphOps.contract_s", contractSp.seconds, "s"),
      Metric("GraphOps.contract_shuffle_mb", contractSp.delta.shuffleMb, "MB"),
      Metric("GraphOps.contract_out_edges", outEdges, "count"),
      Metric("GraphOps.prune_s", pruneS, "s"),
      Metric("GraphOps.prune_kept_frac", keptFrac, "ratio"),
      Metric("GraphOps.heavyCount_s", heavySp.seconds, "s"))
  }
}
