//! Conversions between graphs and the record representations the dataflow
//! algorithms consume.
//!
//! The inputs of the workset algorithms are defined once, as
//! [`RecordSource`]s over the graph's adjacency arrays: a workset run loads
//! them straight into its partitions' pages, and the `*_records` /
//! `initial_*` functions are the same sources collected into heap records
//! for callers that want those.

use dataflow::prelude::{
    CombineClosure, CombineFunction, Key, Record, RecordSink, RecordSource, RecordView,
    SourceClosure, Value,
};
use graphdata::{Graph, VertexId};
use std::sync::Arc;

/// A vertex id as a record field.
pub(crate) fn vid(v: VertexId) -> Value {
    Value::Long(i64::from(v))
}

/// The grouped update of Connected Components and SSSP: a vertex takes the
/// smallest candidate value (field 1) when it improves on its own.
pub(crate) fn adopt_min(
    key: &Key,
    current: Option<RecordView<'_>>,
    candidates: &[RecordView<'_>],
    delta: &mut dyn RecordSink,
) {
    let best = candidates
        .iter()
        .map(|r| r.long(1))
        .min()
        .expect("non-empty group");
    if current.is_none_or(|c| c.long(1) > best) {
        delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
    }
}

/// The comparator of Connected Components and SSSP: of two records for one
/// vertex, the one with the smaller value (field 1) is the successor state
/// and survives the solution-set merge.
pub(crate) fn prefer_min(a: &Record, b: &Record) -> std::cmp::Ordering {
    b.long(1).cmp(&a.long(1))
}

/// The combine Connected Components and SSSP declare: of two candidates
/// for one vertex, the one with the smaller value (field 1) is held — the
/// minimum their update would take from both.
pub fn min_combine() -> Arc<dyn CombineFunction> {
    Arc::new(CombineClosure(
        |held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink| {
            if candidate[1].as_long() < held.long(1) {
                out.emit(candidate);
            }
        },
    ))
}

/// A source that emits `record(s, t)` for every directed edge `s -> t` of
/// `graph`, in CSR order.
fn per_edge<'g, const N: usize>(
    graph: &'g Graph,
    record: impl Fn(VertexId, VertexId) -> [Value; N] + Send + Sync + 'g,
) -> impl RecordSource + 'g {
    SourceClosure::new(graph.num_edges(), move |out: &mut dyn RecordSink| {
        for s in graph.vertices() {
            for &t in graph.neighbors(s) {
                out.emit(&record(s, t));
            }
        }
    })
}

/// A source that emits `record(v)` for every vertex `v` of `graph`, in id
/// order.
pub(crate) fn per_vertex<'g, const N: usize>(
    graph: &'g Graph,
    record: impl Fn(VertexId) -> [Value; N] + Send + Sync + 'g,
) -> impl RecordSource + 'g {
    SourceClosure::new(graph.num_vertices(), move |out: &mut dyn RecordSink| {
        for v in graph.vertices() {
            out.emit(&record(v));
        }
    })
}

/// The graph's edges as `(vid1, vid2)` records — the neighbourhood table `N`
/// of the Connected Components dataflows.  For undirected graphs the CSR
/// already contains both directions.
pub fn edge_source(graph: &Graph) -> impl RecordSource + '_ {
    per_edge(graph, |s, t| [vid(s), vid(t)])
}

/// [`edge_source`] as heap records.
pub fn edge_records(graph: &Graph) -> Arc<Vec<Record>> {
    Arc::new(edge_source(graph).collect())
}

/// The graph's edges as `(vid1, vid2, out_degree(vid1))` records, used by the
/// adaptive PageRank expansion which needs the degree to split pushed mass.
pub fn edge_with_degree_source(graph: &Graph) -> impl RecordSource + '_ {
    per_edge(graph, |s, t| {
        [vid(s), vid(t), Value::Long(graph.degree(s) as i64)]
    })
}

/// [`edge_with_degree_source`] as heap records.
pub fn edge_records_with_degree(graph: &Graph) -> Arc<Vec<Record>> {
    Arc::new(edge_with_degree_source(graph).collect())
}

/// The initial Connected Components solution: every vertex is its own
/// component, `(vid, cid = vid)`.
pub fn component_source(graph: &Graph) -> impl RecordSource + '_ {
    per_vertex(graph, |v| [vid(v), vid(v)])
}

/// [`component_source`] as heap records.
pub fn initial_components(graph: &Graph) -> Vec<Record> {
    component_source(graph).collect()
}

/// The initial Connected Components working set: for every edge `(a, b)` the
/// candidate pair `(b, cid(a) = a)`, exactly as in Section 2.2.
pub fn component_candidate_source(graph: &Graph) -> impl RecordSource + '_ {
    per_edge(graph, |s, t| [vid(t), vid(s)])
}

/// [`component_candidate_source`] as heap records.
pub fn initial_component_candidates(graph: &Graph) -> Vec<Record> {
    component_candidate_source(graph).collect()
}

/// The sparse transition matrix of PageRank as `(tid, pid, probability)`
/// records: an entry per edge `pid -> tid` with probability
/// `1 / out_degree(pid)`, plus a zero entry `(v, v, 0.0)` per vertex so that
/// every page appears in the aggregation even if it has no in-links.
pub fn transition_matrix(graph: &Graph) -> Arc<Vec<Record>> {
    let mut records = Vec::with_capacity(graph.num_edges() + graph.num_vertices());
    for v in graph.vertices() {
        let degree = graph.degree(v);
        if degree > 0 {
            let p = 1.0 / degree as f64;
            for &t in graph.neighbors(v) {
                records.push(Record::triple(i64::from(t), i64::from(v), p));
            }
        }
        records.push(Record::triple(i64::from(v), i64::from(v), 0.0));
    }
    Arc::new(records)
}

/// The uniform initial rank vector `(pid, 1/n)`.
pub fn initial_ranks(graph: &Graph) -> Vec<Record> {
    let n = graph.num_vertices() as f64;
    graph
        .vertices()
        .map(|v| Record::long_double(i64::from(v), 1.0 / n))
        .collect()
}

/// Turns `(vid, value)` records into a dense vector indexed by vertex id.
pub fn records_to_vec(records: &[Record], num_vertices: usize) -> Vec<i64> {
    let mut out = vec![0i64; num_vertices];
    for r in records {
        out[r.long(0) as usize] = r.long(1);
    }
    out
}

/// Turns `(vid, rank)` records into a dense `f64` vector indexed by vertex id.
pub fn records_to_f64_vec(records: &[Record], num_vertices: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; num_vertices];
    for r in records {
        out[r.long(0) as usize] = r.double(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{figure1_graph, SmallRng};

    /// The `min` update and combine Connected Components and SSSP declare
    /// obey the laws that let the runtime fold their candidates: the fold
    /// is associative and commutative, and the update takes from a folded
    /// group what it takes from the whole group.  Values come from a small
    /// range, so ties and non-improving groups are common.
    #[test]
    fn the_min_update_and_combine_of_cc_and_sssp_obey_the_fold_laws() {
        use reference::laws::{check_combine, check_update_folds};
        let combine = min_combine();
        assert_eq!(check_combine(&*combine, 1_000, 51, candidate), Ok(()));
        let folds = check_update_folds(&adopt_min, &*combine, &[0], 1_000, 52, draw);
        assert_eq!(folds, Ok(()));
    }

    /// A candidate of vertex 11 with a value from a small range.
    fn candidate(rng: &mut SmallRng) -> Record {
        Record::pair(11, rng.gen_range(16) as i64)
    }

    /// A stored record (or none) and a group of one to eight candidates.
    fn draw(rng: &mut SmallRng) -> (Option<Record>, Vec<Record>) {
        let current = (rng.gen_range(5) > 0).then(|| Record::pair(11, rng.gen_range(20) as i64));
        let size = 1 + rng.gen_index(8);
        (current, (0..size).map(|_| candidate(rng)).collect())
    }

    /// The update and comparator of Connected Components and SSSP obey the
    /// laws that let microstep runs reach the batch fixpoint: the update
    /// ignores its candidates' order, and the comparator is a total order.
    #[test]
    fn the_min_update_and_comparator_of_cc_and_sssp_are_order_insensitive_and_total() {
        use reference::laws::{check_comparator_total, check_update_order_insensitive};
        let orderless = check_update_order_insensitive(&adopt_min, &[0], 1_000, 53, draw);
        assert_eq!(orderless, Ok(()));
        assert_eq!(
            check_comparator_total(&prefer_min, 1_000, 54, candidate),
            Ok(())
        );
    }

    #[test]
    fn edge_records_cover_both_directions() {
        let g = figure1_graph();
        let edges = edge_records(&g);
        assert_eq!(edges.len(), g.num_edges());
        assert!(edges.contains(&Record::pair(1, 2)));
        assert!(edges.contains(&Record::pair(2, 1)));
    }

    #[test]
    fn initial_components_assign_vid_as_cid() {
        let g = figure1_graph();
        let init = initial_components(&g);
        assert_eq!(init.len(), g.num_vertices());
        assert!(init.iter().all(|r| r.long(0) == r.long(1)));
    }

    #[test]
    fn initial_candidates_follow_the_edges() {
        let g = figure1_graph();
        let w = initial_component_candidates(&g);
        assert_eq!(w.len(), g.num_edges());
        assert!(w.contains(&Record::pair(2, 1)));
        assert!(w.contains(&Record::pair(1, 2)));
    }

    #[test]
    fn transition_matrix_rows_sum_to_one_per_source() {
        let g = figure1_graph();
        let matrix = transition_matrix(&g);
        for v in g.vertices() {
            let sum: f64 = matrix
                .iter()
                .filter(|r| r.long(1) == i64::from(v))
                .map(|r| r.double(2))
                .sum();
            if g.degree(v) > 0 {
                assert!((sum - 1.0).abs() < 1e-12, "vertex {v} sums to {sum}");
            } else {
                assert_eq!(sum, 0.0);
            }
        }
    }

    #[test]
    fn transition_matrix_includes_zero_entries_for_all_vertices() {
        let g = figure1_graph();
        let matrix = transition_matrix(&g);
        for v in g.vertices() {
            assert!(matrix.iter().any(|r| r.long(0) == i64::from(v)));
        }
    }

    #[test]
    fn dense_vector_conversions() {
        let records = vec![Record::pair(0, 5), Record::pair(2, 7)];
        assert_eq!(records_to_vec(&records, 3), vec![5, 0, 7]);
        let ranks = vec![Record::long_double(1, 0.5)];
        assert_eq!(records_to_f64_vec(&ranks, 2), vec![0.0, 0.5]);
    }

    #[test]
    fn edge_records_with_degree_carry_the_source_degree() {
        let g = figure1_graph();
        let edges = edge_records_with_degree(&g);
        for r in edges.iter() {
            let s = r.long(0) as u32;
            assert_eq!(r.long(2), g.degree(s) as i64);
        }
    }
}
