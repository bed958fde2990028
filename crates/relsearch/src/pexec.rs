//! Intra-query parallel CN execution.
//!
//! This is the production counterpart of the offline scheduling demos in
//! [`crate::parallel`]: one keyword query's candidate networks are spread
//! over worker threads that all prune against a single global top-k bound
//! ([`kwdb_common::SharedTopK`]), with per-worker queues seeded by the
//! sharing-aware partitioner and drained through atomic cursors so idle
//! workers steal from loaded ones.
//!
//! Each worker evaluates whole CNs with [`evaluate_cn_pooled`], a hash-join
//! evaluator that caches build-side hash tables per `(table, mask, column)`
//! inside an [`EvalScratch`] — tuple sets recur across the CNs of one query,
//! so each worker pays each build at most once — and reuses flat intermediate
//! buffers instead of allocating row vectors per CN.
//!
//! # Determinism
//!
//! The executor returns the *exact* top-k of the full result multiset for
//! any worker count, because (a) the score model is monotone and the shared
//! threshold is a conservative lower bound on the global k-th best, so a
//! CN is skipped only when `bound < threshold` strictly — it provably
//! cannot contribute; and (b) `SharedTopK` orders ties by result content,
//! not arrival. Under a truncating budget the *verdict* is still
//! deterministic for candidate caps (one ticket is drawn per CN considered,
//! before the bound check), though which CNs made it in before the cut
//! depends on timing — same as any anytime algorithm.

use crate::cn::CandidateNetwork;
use crate::eval::JoinedResult;
use crate::facets::{FacetAccum, FacetRequest};
use crate::parallel::{estimate_cost, partition_sharing_aware};
use crate::topk::{CnExecOutcome, RankedResult, TopKQuery};
use crate::tupleset::TupleSets;
use kwdb_common::index::kernels;
use kwdb_common::{Budget, ScratchPool, SharedTopK, TruncationReason, Value};
use kwdb_rank::tfidf::TfIdf;
use kwdb_relational::index::table_key_range;
use kwdb_relational::{Database, ExecStats, RowId, TableId, TupleId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Per-worker reusable evaluation state. Checked out of a
/// [`ScratchPool`] once per query per worker; [`EvalScratch::begin_query`]
/// resets query-scoped caches while keeping allocated capacity.
#[derive(Default)]
pub struct EvalScratch {
    /// Build-side hash tables keyed by `(table, mask, join column)`:
    /// join key value → rows of that node's default row set. Valid for one
    /// query (row sets depend on the tuple sets).
    builds: HashMap<(TableId, u32, usize), HashMap<Value, Vec<RowId>>>,
    /// Materialized free sets `R^∅`, one per table, shared by every free
    /// node of the query's CNs.
    free_rows: HashMap<TableId, Vec<RowId>>,
    /// Flat ping-pong intermediates: `cur` holds the joined prefix as
    /// `stride`-sized chunks of `RowId`s, `next` receives the join output.
    cur: Vec<RowId>,
    next: Vec<RowId>,
}

impl EvalScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop query-scoped caches (they key on tuple sets) but keep buffer
    /// capacity for reuse across queries.
    pub fn begin_query(&mut self) {
        self.builds.clear();
        self.free_rows.clear();
        self.cur.clear();
        self.next.clear();
    }
}

/// Evaluate `cn` fully over its default row sets, reusing `scratch`'s
/// cached hash tables and buffers. Produces the same result *set* as
/// [`crate::eval::evaluate_cn`] (order may differ; callers rank by
/// content anyway).
pub fn evaluate_cn_pooled(
    db: &Database,
    cn: &CandidateNetwork,
    ts: &TupleSets,
    scratch: &mut EvalScratch,
    stats: &ExecStats,
) -> Vec<JoinedResult> {
    evaluate_cn_pooled_until(db, cn, ts, scratch, stats, &|| false)
}

/// [`evaluate_cn_pooled`] with a cancellation probe, polled between join
/// steps and periodically inside probe loops. When `cancel` turns true the
/// evaluation stops and returns no results — the parallel executor uses
/// this to abandon a CN the moment the shared top-k bound strictly exceeds
/// the CN's upper bound (every result it could still produce would be
/// rejected, so dropping them cannot change the final top-k).
pub fn evaluate_cn_pooled_until(
    db: &Database,
    cn: &CandidateNetwork,
    ts: &TupleSets,
    scratch: &mut EvalScratch,
    stats: &ExecStats,
    cancel: &dyn Fn() -> bool,
) -> Vec<JoinedResult> {
    let n = cn.nodes.len();
    if n == 0 {
        return Vec::new();
    }
    // Materialize any free sets this CN needs before joining, so the join
    // loop can borrow `scratch.free_rows` immutably while it mutates
    // `scratch.builds` (disjoint fields).
    for node in &cn.nodes {
        if node.mask == 0 {
            if let Entry::Vacant(v) = scratch.free_rows.entry(node.table) {
                v.insert(ts.free_rows(db, node.table));
            }
        }
    }
    fn rows_of<'a>(
        cn: &CandidateNetwork,
        ts: &'a TupleSets,
        free: &'a HashMap<TableId, Vec<RowId>>,
        ni: usize,
    ) -> &'a [RowId] {
        let node = cn.nodes[ni];
        if node.mask == 0 {
            free.get(&node.table).map(|v| v.as_slice()).unwrap_or(&[])
        } else {
            ts.get(node.table, node.mask)
                .map(|s| s.rows.as_slice())
                .unwrap_or(&[])
        }
    }

    // BFS placement order from node 0 (same shape as evaluate_cn_with).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in cn.edges.iter().enumerate() {
        adj[e.a].push(ei);
        adj[e.b].push(ei);
    }
    let mut order = vec![0usize];
    let mut join_via: Vec<Option<usize>> = vec![None; n];
    let mut placed = vec![false; n];
    placed[0] = true;
    let mut qi = 0;
    while qi < order.len() {
        let u = order[qi];
        qi += 1;
        for &ei in &adj[u] {
            let e = &cn.edges[ei];
            let v = if e.a == u { e.b } else { e.a };
            if !placed[v] {
                placed[v] = true;
                join_via[v] = Some(ei);
                order.push(v);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "CN must be connected");
    let mut slot = vec![0usize; n];
    for (s, &node) in order.iter().enumerate() {
        slot[node] = s;
    }

    let mut cur = std::mem::take(&mut scratch.cur);
    let mut next = std::mem::take(&mut scratch.next);
    cur.clear();
    let first_rows = rows_of(cn, ts, &scratch.free_rows, order[0]);
    stats.add_scanned(first_rows.len() as u64);
    cur.extend_from_slice(first_rows);
    let mut stride = 1usize;

    let mut cancelled = false;
    for &node in order.iter().skip(1) {
        if cur.is_empty() {
            break;
        }
        if cancel() {
            cancelled = true;
            break;
        }
        let e = &cn.edges[join_via[node].expect("non-root placed via an edge")];
        let parent = if e.a == node { e.b } else { e.a };
        let se = &db.schema_graph().edges()[e.schema_edge];
        let (parent_col, node_col) = if e.from_side_is(parent) {
            (se.fk_column, se.pk_column)
        } else {
            (se.pk_column, se.fk_column)
        };
        let parent_table = db.table(cn.nodes[parent].table);
        let node_table = db.table(cn.nodes[node].table);
        let pslot = slot[parent];
        let node_rows = rows_of(cn, ts, &scratch.free_rows, node);
        let ntuples = cur.len() / stride;
        stats.add_join();
        next.clear();

        let cached_key = (cn.nodes[node].table, cn.nodes[node].mask, node_col);
        let cached = scratch.builds.contains_key(&cached_key);
        if cached || node_rows.len() <= ntuples {
            // Build (or reuse) the hash table on the node side, probe with
            // the intermediate. Cached builds are free after first use.
            let build = match scratch.builds.entry(cached_key) {
                Entry::Occupied(o) => o.into_mut(),
                Entry::Vacant(v) => {
                    let mut ht: HashMap<Value, Vec<RowId>> =
                        HashMap::with_capacity(node_rows.len());
                    for &r in node_rows {
                        stats.add_scanned(1);
                        let key = node_table.get(r, node_col);
                        if !key.is_null() {
                            ht.entry(key.clone()).or_default().push(r);
                        }
                    }
                    v.insert(ht)
                }
            };
            for t in 0..ntuples {
                if t % 1024 == 1023 && cancel() {
                    cancelled = true;
                    break;
                }
                stats.add_probes(1);
                let key = parent_table.get(cur[t * stride + pslot], parent_col);
                if key.is_null() {
                    continue;
                }
                if let Some(matches) = build.get(key) {
                    stats.add_probe_rows(matches.len() as u64);
                    for &r in matches {
                        next.extend_from_slice(&cur[t * stride..(t + 1) * stride]);
                        next.push(r);
                    }
                }
            }
        } else {
            // The intermediate is the smaller side: hash its parent keys
            // (transient — depends on this CN's prefix) and probe with the
            // node rows.
            let mut ht: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(ntuples);
            for t in 0..ntuples {
                stats.add_scanned(1);
                let key = parent_table.get(cur[t * stride + pslot], parent_col);
                if !key.is_null() {
                    ht.entry(key).or_default().push(t);
                }
            }
            for (ri, &r) in node_rows.iter().enumerate() {
                if ri % 1024 == 1023 && cancel() {
                    cancelled = true;
                    break;
                }
                stats.add_probes(1);
                let key = node_table.get(r, node_col);
                if key.is_null() {
                    continue;
                }
                if let Some(tuples) = ht.get(key) {
                    stats.add_probe_rows(tuples.len() as u64);
                    for &t in tuples {
                        next.extend_from_slice(&cur[t * stride..(t + 1) * stride]);
                        next.push(r);
                    }
                }
            }
        }
        if cancelled {
            break;
        }
        stats.add_output((next.len() / (stride + 1)) as u64);
        std::mem::swap(&mut cur, &mut next);
        stride += 1;
    }

    let results = if !cancelled && stride == n {
        cur.chunks(stride)
            .map(|chunk| {
                let mut tuples = vec![TupleId::new(cn.nodes[0].table, RowId(0)); n];
                for (s, &node) in order.iter().enumerate() {
                    tuples[node] = TupleId::new(cn.nodes[node].table, chunk[s]);
                }
                JoinedResult { tuples }
            })
            .collect()
    } else {
        Vec::new() // a join emptied out before all nodes were placed
    };
    scratch.cur = cur;
    scratch.next = next;
    results
}

/// Try the block-max WAND fast path for a single-node CN covering the full
/// keyword mask. Such a CN's result set is exactly the keys present in
/// *every* keyword's posting list within the table's key range (the exact
/// subset cannot exceed the full mask), so it can be answered straight off
/// the posting cursors — no tuple-set materialization, no joins — while
/// block-max bounds let whole compressed blocks be skipped once the shared
/// top-k threshold rises.
///
/// Returns `false` when the CN does not fit the pattern (caller falls back
/// to the join evaluator); `true` when the CN was fully handled, including
/// the provably-empty case of a keyword absent from the index.
///
/// Exactness: the single-node score is `Σ_k tf_weight(tf_k) · idf_k` with
/// `tf_k` the tuple's occurrence total for keyword `k` — and block
/// `max_impact` bounds per-key *group totals*, so
/// `Σ_k tf_weight(block_max_k) · idf_k` upper-bounds every candidate in the
/// current blocks. Pruning is strictly-below-threshold, matching
/// `SharedTopK::would_accept`'s `score ≥ t` acceptance, so the emitted set
/// restricted to the final top-k is identical to the unpruned path for any
/// worker count and either posting layout.
fn wand_try_single_node<S, D>(
    q: &TopKQuery<'_, S, D>,
    j: usize,
    shared: &SharedTopK<(usize, JoinedResult)>,
    w: usize,
    stats: &ExecStats,
    freq: &FacetRequest<'_>,
    accum: &mut FacetAccum,
) -> bool
where
    S: AsRef<str>,
    D: Deref<Target = Database>,
{
    let exhaustive = freq.exhaustive();
    let cn = &q.cns[j];
    let full = q.ts.full_mask();
    if cn.nodes.len() != 1 || full == 0 || cn.nodes[0].mask != full {
        return false;
    }
    let table = cn.nodes[0].table;
    // Tuple sets were built from a fresh index; a stale one here means the
    // caller mutated mid-query — fall back to the generic executor.
    let Ok(ix) = q.db.text_index() else {
        return false;
    };
    let mut cursors = Vec::with_capacity(q.keywords.len());
    let mut idfs = Vec::with_capacity(q.keywords.len());
    for kw in q.keywords {
        let kw = kw.as_ref();
        let Some(sym) = ix.sym(kw) else {
            return true; // keyword absent from the corpus: CN provably empty
        };
        cursors.push(ix.postings_sym(sym).cursor());
        idfs.push(q.scorer.corpus().idf(kw));
    }
    let (lo, hi) = table_key_range(table);
    for c in &mut cursors {
        c.seek(lo);
    }
    let ws = kernels::wand_intersect(
        &mut cursors,
        hi,
        |maxes| {
            maxes
                .iter()
                .zip(&idfs)
                .map(|(&m, idf)| TfIdf::tf_weight(m as usize) * idf)
                .sum()
        },
        // Exhaustive (faceted) runs must see every matching tuple, so the
        // pruning threshold is withheld and no block is ever skipped.
        || {
            if exhaustive {
                None
            } else {
                shared.threshold()
            }
        },
        |key, _| {
            let r = JoinedResult {
                tuples: vec![TupleId::new(table, RowId(key as u32))],
            };
            if !freq.passes(q.db, &r) {
                return;
            }
            if exhaustive {
                accum.observe(q.db, freq.facets, &r);
            }
            let score = q.scorer.monotone_score(&r, q.keywords);
            shared.push(w, score, (j, r));
        },
    );
    // Each emitted key is one tuple read and scored — the same tuples the
    // join evaluator counts when it scans this CN's root tuple set.
    stats.add_scanned(ws.emitted);
    stats.add_output(ws.emitted);
    stats.add_blocks_skipped(ws.blocks_skipped);
    true
}

/// Run the parallel CN executor: evaluate `q.cns` on `workers` threads
/// sharing one top-k bound, under `budget`. Scratch state is checked out of
/// `pool` (one `EvalScratch` per worker, returned on completion).
///
/// Scheduling: per-worker queues seeded by the sharing-aware partitioner
/// (bound-descending within a queue), drained via per-queue atomic cursors;
/// a worker that exhausts its own queue steals from the others in ring
/// order. Worker checkpoints draw one budget ticket per CN *considered*
/// (before the bound prune), so a candidate-cap truncation verdict is a
/// deterministic function of the CN count.
pub fn parallel_topk_budgeted<S, D>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
    budget: &Budget,
    workers: usize,
    pool: &ScratchPool<EvalScratch>,
) -> CnExecOutcome
where
    S: AsRef<str> + Sync,
    D: Deref<Target = Database> + Sync,
{
    parallel_topk_faceted(q, k, stats, budget, workers, pool, &FacetRequest::none()).0
}

/// [`parallel_topk_budgeted`] extended with facet accumulation and
/// drill-down refinement; returns the merged facet counts alongside the
/// outcome.
///
/// With facets requested the executor runs *exhaustively*: the per-CN bound
/// prune, the mid-evaluation cancellation probe, and the WAND block-max
/// threshold are all disabled, so every CN considered is evaluated to
/// completion exactly once (each job index is drawn from its queue by one
/// `fetch_add` winner). Each worker counts into its own [`FacetAccum`] —
/// piggybacked on the same pooled-`EvalScratch` evaluation pass that feeds
/// the shared top-k — and the accumulators are merged after the thread scope
/// drains. Merging is plain addition over a duplicate-free result multiset,
/// so the counts are exact and identical for any worker count. Budget
/// tickets are still drawn per CN; a truncated run leaves the counts partial
/// (`facets_exact = truncation.is_none()` at the response layer).
pub fn parallel_topk_faceted<S, D>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
    budget: &Budget,
    workers: usize,
    pool: &ScratchPool<EvalScratch>,
    freq: &FacetRequest<'_>,
) -> (CnExecOutcome, FacetAccum)
where
    S: AsRef<str> + Sync,
    D: Deref<Target = Database> + Sync,
{
    let exhaustive = freq.exhaustive();
    let n = q.cns.len();
    if n == 0 {
        return (
            CnExecOutcome {
                results: Vec::new(),
                truncation: budget.truncation(),
                cns_evaluated: 0,
                cns_pruned: 0,
            },
            FacetAccum::new(freq.facets.len()),
        );
    }
    let workers = workers.max(1);

    // Upper bound per CN from per-(table, mask) best tuple scores — computed
    // once, not per CN, unlike the serial executors' cn_bound.
    let mut best: HashMap<(TableId, u32), f64> = HashMap::new();
    for (table, mask) in q.ts.keys() {
        let b =
            q.ts.get(table, mask)
                .map(|s| {
                    s.rows
                        .iter()
                        .map(|&r| q.scorer.tuple_score(TupleId::new(table, r), q.keywords))
                        .fold(0.0, f64::max)
                })
                .unwrap_or(0.0);
        best.insert((table, mask), b);
    }
    let bounds: Vec<f64> = q
        .cns
        .iter()
        .map(|cn| {
            let sum: f64 = cn
                .keyword_nodes()
                .into_iter()
                .map(|ni| {
                    best.get(&(cn.nodes[ni].table, cn.nodes[ni].mask))
                        .copied()
                        .unwrap_or(0.0)
                })
                .sum();
            sum / cn.size() as f64
        })
        .collect();

    // Seed per-worker queues sharing-aware; order each queue best-bound
    // first so the global threshold rises as early as possible.
    let costs: Vec<f64> = q
        .cns
        .iter()
        .map(|cn| estimate_cost(q.db, q.ts, cn))
        .collect();
    let assign = partition_sharing_aware(q.cns, &costs, workers);
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (j, &c) in assign.core_of.iter().enumerate() {
        queues[c % workers].push(j);
    }
    for jobs in &mut queues {
        jobs.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));
    }

    let shared: SharedTopK<(usize, JoinedResult)> = SharedTopK::new(k, workers);
    let cursors: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    let tickets = AtomicU64::new(0);
    let evaluated = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let truncation: Mutex<Option<TruncationReason>> = Mutex::new(None);

    let run_worker = |w: usize| {
        let mut scratch = pool.checkout(EvalScratch::new);
        scratch.begin_query();
        let mut accum = FacetAccum::new(freq.facets.len());
        'queues: for qi in 0..workers {
            let qidx = (w + qi) % workers; // own queue first, then steal
            let jobs = &queues[qidx];
            let cursor = &cursors[qidx];
            loop {
                if abort.load(Ordering::Acquire) {
                    break 'queues;
                }
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&j) = jobs.get(pos) else { break };
                let ticket = tickets.fetch_add(1, Ordering::Relaxed);
                if let Some(reason) = budget.truncation_at(ticket) {
                    let mut tr = truncation.lock().expect("truncation poisoned");
                    // Prefer the deterministic cap verdict if any worker saw it.
                    *tr = match (*tr, reason) {
                        (Some(TruncationReason::CandidateCapReached), _) => {
                            Some(TruncationReason::CandidateCapReached)
                        }
                        (_, r) => Some(r),
                    };
                    abort.store(true, Ordering::Release);
                    break 'queues;
                }
                if !exhaustive && !shared.would_accept(bounds[j]) {
                    continue; // strictly below the global k-th best: pruned
                }
                // Single-node full-mask CNs skip the join machinery and run
                // straight off the posting cursors with block-max pruning.
                if wand_try_single_node(q, j, &shared, w, stats, freq, &mut accum) {
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Abandon mid-evaluation once another worker raises the
                // threshold past this CN's bound: everything it could still
                // produce would be rejected. Faceted runs never abandon —
                // every result still counts even when it can't be ranked.
                let results =
                    evaluate_cn_pooled_until(q.db, &q.cns[j], q.ts, &mut scratch, stats, &|| {
                        !exhaustive && !shared.would_accept(bounds[j])
                    });
                evaluated.fetch_add(1, Ordering::Relaxed);
                for r in results {
                    if !freq.passes(q.db, &r) {
                        continue;
                    }
                    if exhaustive {
                        accum.observe(q.db, freq.facets, &r);
                    }
                    let score = q.scorer.monotone_score(&r, q.keywords);
                    shared.push(w, score, (j, r));
                }
            }
        }
        accum
    };

    let mut accum = FacetAccum::new(freq.facets.len());
    if workers == 1 {
        accum.merge(run_worker(0));
    } else {
        let run_worker = &run_worker;
        let worker_accums = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| s.spawn(move || run_worker(w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        for a in worker_accums {
            accum.merge(a);
        }
    }

    let results = shared
        .into_sorted_vec()
        .into_iter()
        .map(|(score, (cn_index, result))| RankedResult {
            cn_index,
            result,
            score,
        })
        .collect();
    let evaluated = evaluated.load(Ordering::Relaxed);
    (
        CnExecOutcome {
            results,
            truncation: truncation.into_inner().expect("truncation poisoned"),
            cns_evaluated: evaluated,
            cns_pruned: n as u64 - evaluated,
        },
        accum,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CnGenConfig, CnGenerator, MaskOracle};
    use crate::eval::evaluate_cn;
    use crate::score::ResultScorer;
    use crate::topk::global_pipeline;
    use kwdb_relational::database::dblp_schema;

    fn db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("conference", vec![2.into(), "VLDB".into(), 2008.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "Serge Abiteboul".into()])
            .unwrap();
        db.insert("author", vec![3.into(), "Widom Junior".into()])
            .unwrap();
        for (pid, title, cid) in [
            (10, "XML keyword search", 1),
            (11, "Data on the Web", 1),
            (12, "Streams and XML", 2),
            (13, "Query optimization", 2),
        ] {
            db.insert("paper", vec![pid.into(), title.into(), cid.into()])
                .unwrap();
        }
        for (wid, aid, pid) in [(100, 1, 10), (101, 2, 11), (102, 1, 12), (103, 3, 13)] {
            db.insert("write", vec![wid.into(), aid.into(), pid.into()])
                .unwrap();
        }
        db.build_text_index();
        db
    }

    fn setup(db: &Database, keywords: &[&str]) -> (TupleSets, Vec<CandidateNetwork>) {
        let ts = TupleSets::build(db, keywords).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let mut generator = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: 5,
                dedupe: true,
                max_cns: 0,
            },
        );
        (ts, generator.generate())
    }

    #[test]
    fn pooled_eval_matches_plain_eval_as_sets() {
        let db = db();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        assert!(!cns.is_empty());
        let mut scratch = EvalScratch::new();
        scratch.begin_query();
        for cn in &cns {
            let stats = ExecStats::new();
            let mut plain = evaluate_cn(&db, cn, &ts, &stats);
            let mut pooled = evaluate_cn_pooled(&db, cn, &ts, &mut scratch, &stats);
            plain.sort();
            pooled.sort();
            assert_eq!(plain, pooled, "pooled evaluator diverged on a CN");
        }
    }

    #[test]
    fn parallel_matches_serial_scores_across_worker_counts() {
        let db = db();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        let scorer = ResultScorer::new(&db);
        let keywords = ["widom", "xml"];
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let pool = ScratchPool::new();
        for k in [1, 3, 10] {
            let serial: Vec<f64> = global_pipeline(&q, k, &ExecStats::new())
                .iter()
                .map(|r| r.score)
                .collect();
            for workers in [1, 2, 4] {
                let out = parallel_topk_budgeted(
                    &q,
                    k,
                    &ExecStats::new(),
                    &Budget::unlimited(),
                    workers,
                    &pool,
                );
                let scores: Vec<f64> = out.results.iter().map(|r| r.score).collect();
                assert_eq!(serial, scores, "k={k} workers={workers}");
                assert!(out.truncation.is_none());
                assert_eq!(out.cns_evaluated + out.cns_pruned, cns.len() as u64);
            }
        }
    }

    #[test]
    fn wand_fast_path_matches_serial_across_layouts_and_workers() {
        use kwdb_common::index::Layout;
        let mut db = db();
        // A row matching every keyword, so a single-node full-mask CN — the
        // WAND fast path's target — exists and produces results.
        db.insert(
            "paper",
            vec![14.into(), "Widom XML retrospective".into(), 2.into()],
        )
        .unwrap();
        for layout in [Layout::Plain, Layout::Blocks] {
            db.build_text_index_with(layout);
            let (ts, cns) = setup(&db, &["widom", "xml"]);
            assert!(
                cns.iter()
                    .any(|cn| cn.nodes.len() == 1 && cn.nodes[0].mask == ts.full_mask()),
                "expected a single-node full-mask CN"
            );
            let scorer = ResultScorer::new(&db);
            let keywords = ["widom", "xml"];
            let q = TopKQuery {
                db: &db,
                ts: &ts,
                cns: &cns,
                scorer: &scorer,
                keywords: &keywords,
            };
            let pool = ScratchPool::new();
            let serial = global_pipeline(&q, 3, &ExecStats::new());
            let serial_scores: Vec<f64> = serial.iter().map(|r| r.score).collect();
            let mut serial_sets: Vec<_> = serial.iter().map(|r| r.result.tuples.clone()).collect();
            serial_sets.sort();
            for workers in [1, 8] {
                let out = parallel_topk_budgeted(
                    &q,
                    3,
                    &ExecStats::new(),
                    &Budget::unlimited(),
                    workers,
                    &pool,
                );
                let scores: Vec<f64> = out.results.iter().map(|r| r.score).collect();
                assert_eq!(serial_scores, scores, "layout={layout:?} workers={workers}");
                let mut sets: Vec<_> = out
                    .results
                    .iter()
                    .map(|r| r.result.tuples.clone())
                    .collect();
                sets.sort();
                assert_eq!(serial_sets, sets, "layout={layout:?} workers={workers}");
            }
        }
    }

    /// With no block pruned, the WAND fast path scans exactly the tuples
    /// the join evaluator scans for the same single-node full-mask CN: the
    /// CN's root tuple set.
    #[test]
    fn wand_fast_path_counts_tuples_scanned_like_join_evaluator() {
        use kwdb_common::index::Layout;
        let mut db = db();
        db.insert(
            "paper",
            vec![14.into(), "Widom XML retrospective".into(), 2.into()],
        )
        .unwrap();
        for layout in [Layout::Plain, Layout::Blocks] {
            db.build_text_index_with(layout);
            let (ts, cns) = setup(&db, &["widom", "xml"]);
            let single: Vec<CandidateNetwork> = cns
                .into_iter()
                .filter(|cn| cn.nodes.len() == 1 && cn.nodes[0].mask == ts.full_mask())
                .collect();
            assert_eq!(single.len(), 1, "layout={layout:?}");

            let joined = ExecStats::new();
            let mut scratch = EvalScratch::new();
            scratch.begin_query();
            let results = evaluate_cn_pooled(&db, &single[0], &ts, &mut scratch, &joined);
            assert!(!results.is_empty(), "layout={layout:?}");
            assert!(joined.tuples_scanned() > 0, "layout={layout:?}");

            let scorer = ResultScorer::new(&db);
            let keywords = ["widom", "xml"];
            let q = TopKQuery {
                db: &db,
                ts: &ts,
                cns: &single,
                scorer: &scorer,
                keywords: &keywords,
            };
            let pool = ScratchPool::new();
            for workers in [1, 8] {
                let wand = ExecStats::new();
                // k covers every result, so the threshold never prunes a block.
                let out = parallel_topk_budgeted(
                    &q,
                    results.len(),
                    &wand,
                    &Budget::unlimited(),
                    workers,
                    &pool,
                );
                assert_eq!(out.results.len(), results.len(), "layout={layout:?}");
                assert_eq!(
                    wand.tuples_scanned(),
                    joined.tuples_scanned(),
                    "layout={layout:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn expired_deadline_stops_before_any_evaluation() {
        let db = db();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        let scorer = ResultScorer::new(&db);
        let keywords = ["widom", "xml"];
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let pool = ScratchPool::new();
        let budget = Budget::unlimited().with_timeout(std::time::Duration::ZERO);
        let out = parallel_topk_budgeted(&q, 5, &ExecStats::new(), &budget, 4, &pool);
        assert_eq!(out.truncation, Some(TruncationReason::DeadlineExceeded));
        assert_eq!(
            out.cns_evaluated, 0,
            "every worker stops at its first checkpoint"
        );
        assert!(out.results.is_empty());
    }
}
